package obs

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// sampleLine matches one well-formed text-exposition sample.
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

var leLabel = regexp.MustCompile(`,?le="[^"]*"`)

// LintExposition checks a Prometheus text-format payload for structural
// validity: every non-comment line is a well-formed sample, histogram
// buckets are cumulative, and each histogram's +Inf bucket equals its
// _count. It returns a list of problems (empty = valid). The e2e tests
// use it to assert /metrics serves a scrapeable page without depending
// on a real Prometheus parser.
func LintExposition(text string) []string {
	var problems []string
	infBuckets := map[string]float64{}
	counts := map[string]float64{}
	lastCum := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			problems = append(problems, fmt.Sprintf("malformed sample line: %q", line))
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		val, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			problems = append(problems, fmt.Sprintf("bad value in %q: %v", line, err))
			continue
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			series := bucketSeries(line, name)
			if val < lastCum[series] {
				problems = append(problems, fmt.Sprintf("non-cumulative buckets at %q", line))
			}
			lastCum[series] = val
			if strings.Contains(line, `le="+Inf"`) {
				infBuckets[series] = val
			}
		case strings.HasSuffix(name, "_count"):
			counts[strings.TrimSuffix(name, "_count")+labelPart(line)] = val
		}
	}
	for series, inf := range infBuckets {
		if c, ok := counts[series]; !ok || c != inf {
			problems = append(problems, fmt.Sprintf("histogram %q: +Inf bucket %g != count %g", series, inf, c))
		}
	}
	return problems
}

// bucketSeries identifies one histogram child: base name plus its labels
// with le stripped.
func bucketSeries(line, name string) string {
	base := strings.TrimSuffix(name, "_bucket")
	labels := leLabel.ReplaceAllString(labelPart(line), "")
	labels = strings.Replace(labels, "{,", "{", 1)
	if labels == "{}" {
		labels = ""
	}
	return base + labels
}

func labelPart(line string) string {
	i := strings.IndexByte(line, '{')
	if i < 0 {
		return ""
	}
	j := strings.LastIndexByte(line, '}')
	return line[i : j+1]
}
