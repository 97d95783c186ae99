package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/types"
)

// boxRows is what /query encoded before it wrote rows from the tuples: each
// cell boxed as a JSON-native value for encoding/json to reflect over. It
// is the reference appendQueryResponse is held to.
func boxRows(rows []types.Tuple) [][]interface{} {
	out := make([][]interface{}, len(rows))
	for i, row := range rows {
		r := make([]interface{}, len(row))
		for j, v := range row {
			switch v.Kind {
			case types.KindNull:
				r[j] = nil
			case types.KindInt:
				r[j] = v.I
			case types.KindFloat:
				r[j] = v.F
			default:
				r[j] = v.AsString()
			}
		}
		out[i] = r
	}
	return out
}

// TestQueryResponseBytesMatchEncodingJSON: over random tuples — NULLs,
// integers to both ends of int64, floats across encoding/json's fixed and
// exponent forms, strings with control characters, quotes, backslashes,
// the HTML three, DEL, multi-byte runes, U+2028 and invalid UTF-8 — and
// random envelope fields, the body /query writes is byte for byte
// json.Marshal of the QueryResponse with the rows boxed, plus the newline
// json.Encoder ends with.
func TestQueryResponseBytesMatchEncodingJSON(t *testing.T) {
	if n := reflect.TypeOf(QueryResponse{}).NumField(); n != 8 {
		t.Fatalf("QueryResponse has %d fields; appendQueryResponse writes 8 by hand: teach it the new one, then this test", n)
	}
	rng := rand.New(rand.NewSource(24))
	ints := []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64, 1 << 53, -(1 << 53) - 1}
	floats := []float64{0, math.Copysign(0, -1), 1, -1.5, 1e20, 1e21, 1e-6, 1e-7, 123456789.125,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 1.0 / 3, 5e-324, 100, 2.5e10}
	pieces := []string{"", "a", "Florida", " ", "\"", "\\", "<", ">", "&", "/", "\x00", "\x1f", "\n", "\t", "\r",
		"\x7f", "é", "日本", "\u2028", "\u2029", "\xff", "\xc0\xaf", "\xed\xa0\x80", "😀", "'", "{}", "null"}
	value := func() types.Value {
		switch rng.Intn(6) {
		case 0:
			return types.Null()
		case 1:
			if rng.Intn(2) == 0 {
				return types.Int(ints[rng.Intn(len(ints))])
			}
			return types.Int(rng.Int63() - rng.Int63())
		case 2:
			if rng.Intn(2) == 0 {
				return types.Float(floats[rng.Intn(len(floats))])
			}
			return types.Float(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30)))
		default:
			s := ""
			for n := rng.Intn(5); n > 0; n-- {
				s += pieces[rng.Intn(len(pieces))]
			}
			return types.Str(s)
		}
	}
	for iter := 0; iter < 2000; iter++ {
		width := rng.Intn(5)
		rows := make([]types.Tuple, rng.Intn(6))
		for i := range rows {
			rows[i] = make(types.Tuple, width)
			for j := range rows[i] {
				rows[i][j] = value()
			}
		}
		resp := QueryResponse{
			Columns:       make([]string, width),
			RowCount:      len(rows),
			ExternalCalls: int64(rng.Intn(200)),
			ElapsedMS:     float64(rng.Intn(5_000_000)) / 1000,
		}
		for j := range resp.Columns {
			resp.Columns[j] = pieces[rng.Intn(len(pieces))]
		}
		if rng.Intn(3) == 0 {
			resp.DegradedCalls = int64(rng.Intn(50))
		}
		if rng.Intn(3) == 0 {
			resp.TraceID = obs.NewTraceID()
			if rng.Intn(2) == 0 {
				span := obs.NewSpan("Scan", pieces[rng.Intn(len(pieces))])
				span.AddChild(obs.NewSpan("Project", "<a&b>"))
				resp.Trace = span.JSON()
			}
		}
		got, err := appendQueryResponse(nil, &resp, rows)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		resp.Rows = boxRows(rows)
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatalf("iter %d: reference: %v", iter, err)
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("iter %d: body\n%q\nencoding/json writes\n%q", iter, got, want)
		}
	}
	// JSON has no NaN and no infinity: an error, as from encoding/json, and
	// no body.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rows := []types.Tuple{{types.Int(1), types.Float(f)}}
		if body, err := appendQueryResponse(nil, &QueryResponse{Columns: []string{"a", "b"}}, rows); err == nil || body != nil {
			t.Errorf("cell %v: body %q, error %v; want an error and no body", f, body, err)
		}
	}
}

// TestQueryResponseCarriesContentLength: the body is complete before the
// header goes out, so the response says how long it is, and what arrives
// decodes into the same QueryResponse a client has always read.
func TestQueryResponseCarriesContentLength(t *testing.T) {
	env := newTestEnv(t, search.ZeroLatency(), core.Config{}, Options{})
	res, err := http.Get(env.url + "/query?q=" + url.QueryEscape(template1Query))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Header.Get("Content-Length"); res.StatusCode != http.StatusOK || got != strconv.Itoa(len(body)) {
		t.Fatalf("status %d, Content-Length %q for a body of %d bytes", res.StatusCode, got, len(body))
	}
	var resp QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("body %q: %v", body, err)
	}
	if resp.RowCount != 3 || len(resp.Rows) != 3 || len(resp.Columns) != 2 || resp.Rows[0][0] != "Florida" || resp.Rows[0][1] != float64(39) {
		t.Errorf("decoded response: %+v", resp)
	}
}
