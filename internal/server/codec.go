package server

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/types"
)

// The /query success body has one writer, appendQueryResponse, and one
// reader, decodeQueryResponse. Both are held to encoding/json: the writer
// produces its bytes, the reader its values, and either hands anything
// outside the shape it knows to encoding/json itself.

// appendQueryResponse appends to buf the /query success body: byte for
// byte what json.NewEncoder(w).Encode writes for *resp with rows as its
// Rows (null, number or string per cell), but written from the tuples, with
// no [][]interface{} built for encoding/json to reflect over. resp.Rows is
// not read.
func appendQueryResponse(buf []byte, resp *QueryResponse, rows []types.Tuple) ([]byte, error) {
	var err error // the first a field met
	field := func(name string, v interface{}) {
		if err != nil {
			return
		}
		var raw []byte
		raw, err = json.Marshal(v)
		buf = append(append(buf, name...), raw...)
	}
	field(`{"columns":`, resp.Columns)
	buf = append(buf, `,"rows":[`...)
	for i, row := range rows {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		for j, v := range row {
			if j > 0 {
				buf = append(buf, ',')
			}
			if buf, err = appendCell(buf, v); err != nil {
				return nil, fmt.Errorf("row %d, column %d: %w", i, j, err)
			}
		}
		buf = append(buf, ']')
	}
	buf = strconv.AppendInt(append(buf, `],"row_count":`...), int64(resp.RowCount), 10)
	buf = strconv.AppendInt(append(buf, `,"external_calls":`...), resp.ExternalCalls, 10)
	if resp.DegradedCalls != 0 {
		buf = strconv.AppendInt(append(buf, `,"degraded_calls":`...), resp.DegradedCalls, 10)
	}
	field(`,"elapsed_ms":`, resp.ElapsedMS)
	if resp.TraceID != "" {
		field(`,"trace_id":`, resp.TraceID)
	}
	if resp.Trace != nil {
		field(`,"trace":`, resp.Trace)
	}
	if err != nil {
		return nil, err
	}
	return append(buf, "}\n"...), nil
}

// appendCell appends one value as encoding/json writes it: NULL, integers
// and strings that need no escaping directly, every other cell through
// json.Marshal.
func appendCell(buf []byte, v types.Value) ([]byte, error) {
	var cell interface{}
	switch v.Kind {
	case types.KindNull:
		return append(buf, "null"...), nil
	case types.KindInt:
		return strconv.AppendInt(buf, v.I, 10), nil
	case types.KindFloat:
		cell = v.F
	default:
		s := v.AsString()
		if plainASCII(s) {
			return append(append(append(buf, '"'), s...), '"'), nil
		}
		cell = s
	}
	raw, err := json.Marshal(cell)
	return append(buf, raw...), err
}

// plainASCII reports whether encoding/json writes s between quotes as it
// is: printable ASCII without the quote, the backslash and the three
// characters it escapes for HTML.
func plainASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// decodeQueryResponse parses a /query success body: what json.Unmarshal
// gives for it, built without reflection. It reads the fields
// appendQueryResponse writes, in any order: the rows share one backing
// slab of cells, and their plain-ASCII strings one copy of the body. A
// body outside that shape — an escape or a non-ASCII byte in a string, a
// number off the JSON grammar or out of its field's range, null where a
// list or a scalar field is expected, an unknown, case-variant or repeated
// key, a trace, malformed input — is handed to json.Unmarshal whole, so
// the value, or the error, is always the one json.Unmarshal gives.
func decodeQueryResponse(body []byte) (*QueryResponse, error) {
	if resp, ok := scanQueryResponse(string(body)); ok {
		return resp, nil
	}
	var resp QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// scanQueryResponse is decodeQueryResponse's fast path; false sends the
// body to json.Unmarshal.
func scanQueryResponse(s string) (*QueryResponse, bool) {
	d := scanner{s: s}
	resp := new(QueryResponse)
	if !d.next('{') {
		return nil, false
	}
	if !d.next('}') {
		var seen uint8
		for {
			key, ok := d.str()
			if !ok || !d.next(':') {
				return nil, false
			}
			var bit uint8
			switch key {
			case "columns":
				bit, ok = 1<<0, d.columns(resp)
			case "rows":
				bit, ok = 1<<1, d.rows(resp)
			case "row_count":
				bit = 1 << 2
				var n int64
				n, ok = d.parseInt(strconv.IntSize)
				resp.RowCount = int(n)
			case "external_calls":
				bit = 1 << 3
				resp.ExternalCalls, ok = d.parseInt(64)
			case "degraded_calls":
				bit = 1 << 4
				resp.DegradedCalls, ok = d.parseInt(64)
			case "elapsed_ms":
				bit = 1 << 5
				resp.ElapsedMS, ok = d.parseFloat()
			case "trace_id":
				bit = 1 << 6
				resp.TraceID, ok = d.str()
			default:
				return nil, false
			}
			if !ok || seen&bit != 0 {
				return nil, false
			}
			seen |= bit
			if d.next('}') {
				break
			}
			if !d.next(',') {
				return nil, false
			}
		}
	}
	if d.space(); d.i != len(d.s) {
		return nil, false
	}
	return resp, true
}

// scanner reads the JSON subset a /query body is written in.
type scanner struct {
	s string
	i int
}

// space skips JSON whitespace.
func (d *scanner) space() {
	for d.i < len(d.s) {
		switch d.s[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// next consumes c, after whitespace, if it is the next byte.
func (d *scanner) next(c byte) bool {
	if d.i < len(d.s) && d.s[d.i] == c {
		d.i++
		return true
	}
	d.space()
	if d.i < len(d.s) && d.s[d.i] == c {
		d.i++
		return true
	}
	return false
}

// list reads a JSON array whose elements elem reads, calling it once per
// element.
func (d *scanner) list(elem func() bool) bool {
	if !d.next('[') {
		return false
	}
	if d.next(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if d.next(']') {
			return true
		}
		if !d.next(',') {
			return false
		}
	}
}

// str reads a string of ASCII with no control character and nothing
// escaped, which is its own value: a substring of the body, not a copy.
func (d *scanner) str() (string, bool) {
	if !d.next('"') {
		return "", false
	}
	start := d.i
	for ; d.i < len(d.s); d.i++ {
		switch c := d.s[d.i]; {
		case c == '"':
			d.i++
			return d.s[start : d.i-1], true
		case c < 0x20, c >= 0x80, c == '\\':
			return "", false
		}
	}
	return "", false
}

// number reads a number on the JSON grammar and returns its literal, and
// whether it is an integer: no fraction, no exponent.
func (d *scanner) number() (lit string, integer, ok bool) {
	d.space()
	start := d.i
	digits := func() bool {
		n := d.i
		for d.i < len(d.s) && '0' <= d.s[d.i] && d.s[d.i] <= '9' {
			d.i++
		}
		return d.i > n
	}
	if d.i < len(d.s) && d.s[d.i] == '-' {
		d.i++
	}
	switch {
	case d.i < len(d.s) && d.s[d.i] == '0':
		d.i++
	case !digits():
		return "", false, false
	}
	integer = true
	if d.i < len(d.s) && d.s[d.i] == '.' {
		d.i++
		if !digits() {
			return "", false, false
		}
		integer = false
	}
	if d.i < len(d.s) && (d.s[d.i] == 'e' || d.s[d.i] == 'E') {
		d.i++
		if d.i < len(d.s) && (d.s[d.i] == '+' || d.s[d.i] == '-') {
			d.i++
		}
		if !digits() {
			return "", false, false
		}
		integer = false
	}
	return d.s[start:d.i], integer, true
}

// parseInt reads an integer that fits bits, as json.Unmarshal does into an
// int field of that size.
func (d *scanner) parseInt(bits int) (int64, bool) {
	lit, integer, ok := d.number()
	if !ok || !integer {
		return 0, false
	}
	n, err := strconv.ParseInt(lit, 10, bits)
	return n, err == nil
}

// parseFloat reads a number as json.Unmarshal does into a float64. An
// integer of up to 15 digits is exact in a float64, so it is converted
// directly.
func (d *scanner) parseFloat() (float64, bool) {
	lit, integer, ok := d.number()
	if !ok {
		return 0, false
	}
	if digits := strings.TrimPrefix(lit, "-"); integer && len(digits) <= 15 {
		var n int64
		for i := 0; i < len(digits); i++ {
			n = n*10 + int64(digits[i]-'0')
		}
		f := float64(n)
		if len(digits) < len(lit) {
			f = -f
		}
		return f, true
	}
	f, err := strconv.ParseFloat(lit, 64)
	return f, err == nil
}

// columns reads the column names into an exactly sized slice: one pass
// counts them, a second fills it.
func (d *scanner) columns(resp *QueryResponse) bool {
	start, n := d.i, 0
	if !d.list(func() bool { _, ok := d.str(); n++; return ok }) {
		return false
	}
	d.i, resp.Columns = start, make([]string, 0, n)
	return d.list(func() bool {
		c, ok := d.str()
		resp.Columns = append(resp.Columns, c)
		return ok
	})
}

// rows reads the rows: one pass counts rows and cells, a second fills one
// slab of cells that every row is a window of.
func (d *scanner) rows(resp *QueryResponse) bool {
	start, nrows, ncells := d.i, 0, 0
	if !d.list(func() bool {
		nrows++
		return d.list(func() bool { ncells++; return d.cell(nil) })
	}) {
		return false
	}
	d.i = start
	slab, k := make([]interface{}, ncells), 0
	resp.Rows = make([][]interface{}, 0, nrows)
	return d.list(func() bool {
		first := k
		ok := d.list(func() bool { k++; return d.cell(&slab[k-1]) })
		resp.Rows = append(resp.Rows, slab[first:k:k])
		return ok
	})
}

// cell reads one cell — null, a number or a string — into *dst, or only
// checks it when dst is nil.
func (d *scanner) cell(dst *interface{}) bool {
	d.space()
	switch {
	case strings.HasPrefix(d.s[d.i:], "null"):
		d.i += 4
		return true
	case d.i < len(d.s) && d.s[d.i] == '"':
		s, ok := d.str()
		if ok && dst != nil {
			*dst = s
		}
		return ok
	case dst == nil:
		_, _, ok := d.number()
		return ok
	}
	f, ok := d.parseFloat()
	if ok {
		*dst = f
	}
	return ok
}
