package server

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/types"
)

// template1Body is a /query body of Template 1's shape — a name and a
// count per row — with n rows, as appendQueryResponse writes it.
func template1Body(t testing.TB, n int) []byte {
	t.Helper()
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Str(fmt.Sprintf("State%02d", i)), types.Int(int64(i * 37))}
	}
	resp := QueryResponse{Columns: []string{"Name", "Count"}, RowCount: n, ExternalCalls: int64(n), ElapsedMS: 1.25}
	body, err := appendQueryResponse(nil, &resp, rows)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestDecodeQueryResponseAllocs: a 50-row × 2-column body decodes without
// the encoding/json fallback, into what json.Unmarshal gives, in at most
// one heap object per non-null cell plus 8 (json.Unmarshal takes about
// 320).
func TestDecodeQueryResponseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include the race detector's own")
	}
	body := template1Body(t, 50)
	got, ok := scanQueryResponse(string(body))
	if !ok {
		t.Fatalf("body %q fell back to encoding/json", body)
	}
	var want QueryResponse
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("decoded %+v\nencoding/json gives %+v", *got, want)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := decodeQueryResponse(body); err != nil {
			t.Fatal(err)
		}
	})
	if budget := float64(50*2 + 8); allocs > budget {
		t.Errorf("decoding a 50x2 body: %.0f allocations, budget %.0f", allocs, budget)
	}
}

// FuzzDecodeQueryResponse holds decodeQueryResponse to json.Unmarshal on
// every input: the same error, or on success the same value. The seeds in
// testdata/fuzz/FuzzDecodeQueryResponse are bodies appendQueryResponse
// wrote for TestQueryResponseBytesMatchEncodingJSON's random responses,
// and bodies off the fast path's shape: escaped and non-ASCII strings,
// null rows, 1e3 and -0, duplicate and case-variant keys, a trace, and
// truncations.
func FuzzDecodeQueryResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := decodeQueryResponse(body)
		var want QueryResponse
		werr := json.Unmarshal(body, &want)
		switch {
		case (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error():
			t.Fatalf("body %q: error %v, encoding/json: %v", body, err, werr)
		case err == nil && !reflect.DeepEqual(*got, want):
			t.Fatalf("body %q: decoded %#v\nencoding/json gives %#v", body, *got, want)
		}
	})
}

// BenchmarkDecodeQueryResponse compares the decoder with json.Unmarshal on
// a 50-row Template 1 body.
func BenchmarkDecodeQueryResponse(b *testing.B) {
	body := template1Body(b, 50)
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeQueryResponse(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var resp QueryResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
