package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// TestWireGolden holds the span tree's wire form to bytes produced by
// the earlier encoding, which converted each tree to a separate wire
// tree type and attached remote subtrees in that type: the ?trace=1
// field, a coordinator's stitched tree and a /debug/traces entry must
// not move by a byte for the same tree. The files are never regenerated.
func TestWireGolden(t *testing.T) {
	golden := func(name string, got []byte) {
		t.Helper()
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
	marshal := func(s *Span) []byte {
		t.Helper()
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	golden("wire_operator.json", marshal(wireOperatorTree()))
	golden("wire_pumpcall.json", marshal(wirePumpCallTree()))
	// Two spans never opened: their zero start lies 2^63 ns before the root.
	golden("wire_unopened.json", marshal(sampleTrace()))

	// The coordinator's path: the worker's tree crosses the wire, is
	// decoded, anchored at its attempt's start and added under it.
	var wt Span
	if err := json.Unmarshal(marshal(wireOperatorTree()), &wt); err != nil {
		t.Fatal(err)
	}
	root := &Span{Op: "coord.query", Detail: wireStitchedSQL, Node: "coord", Start: wireAt(0), Dur: wireUS(wireCoordDur)}
	root.AddChild(&Span{Op: "coord.attempt", Detail: "w2 error", Node: "coord", Start: wireAt(wireAttempt1Start), Dur: wireUS(wireAttempt1Dur)})
	att := root.AddChild(&Span{Op: "coord.attempt", Detail: "w1", Node: "coord", Start: wireAt(wireAttempt2Start), Dur: wireUS(wireAttempt2Dur)})
	wt.AnchorAt(att.Start)
	wt.Node = "w1"
	att.AddChild(&wt)
	golden("wire_stitched.json", marshal(root))

	st := wireStoredTrace()
	st.Root = wireOperatorTree()
	sink := NewTraceSink()
	sink.Add(st)
	rec := httptest.NewRecorder()
	sink.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?trace_id="+st.TraceID, nil))
	golden("stored_trace.json", rec.Body.Bytes())

	// A served trace decodes back into the tree it was built from.
	var back StoredTrace
	if err := json.Unmarshal(rec.Body.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	back.Root.AnchorAt(wireEpoch)
	golden("wire_operator.json", marshal(back.Root))

	rec = httptest.NewRecorder()
	sink.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	golden("traces_list.json", rec.Body.Bytes())
}
