package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus encodes every registered metric in the Prometheus text
// exposition format (version 0.0.4): `# HELP` / `# TYPE` headers, one
// sample per line, histograms expanded into cumulative `_bucket{le=...}`
// series plus `_sum` and `_count`. Families are emitted in name order
// and their series in label order, so output is deterministic for a given
// state of the records read.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, e := range r.snapshot() {
		if err := writeEntry(w, e); err != nil {
			return err
		}
	}
	return nil
}

func writeEntry(w io.Writer, e entry) error {
	if e.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", e.name, escapeHelp(e.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.name, e.kind); err != nil {
		return err
	}
	if e.kind == kindHistogram {
		for _, s := range merge(e.sources, func(s source) []Series[HistSnapshot] { return s.hists() }) {
			if err := writeHistogram(w, e.name, e.labels, s.Labels, s.Value); err != nil {
				return err
			}
		}
		return nil
	}
	for _, s := range merge(e.sources, func(s source) []Series[float64] { return s.values() }) {
		if err := writeSample(w, e.name, e.labels, s.Labels, s.Value); err != nil {
			return err
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, labels, values []string, s HistSnapshot) error {
	var cum int64
	ln := append([]string{}, labels...)
	lv := append([]string{}, values...)
	ln = append(ln, "le")
	for i, c := range s.Counts {
		cum += c
		le := "+Inf"
		if i < len(s.Bounds) {
			le = formatFloat(s.Bounds[i])
		}
		if err := writeSample(w, name+"_bucket", ln, append(lv[:len(lv):len(lv)], le), float64(cum)); err != nil {
			return err
		}
	}
	if err := writeSample(w, name+"_sum", labels, values, s.Sum); err != nil {
		return err
	}
	return writeSample(w, name+"_count", labels, values, float64(s.Count))
}

func writeSample(w io.Writer, name string, labels, values []string, v float64) error {
	var b strings.Builder
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(values[i]))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// formatFloat renders a sample value: integers without a decimal point,
// everything else in the shortest round-trip form.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatInt(int64(v), 10)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
