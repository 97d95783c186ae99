package profile

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/obs"
)

// liveDests is a scripted stand-in for the pump's destination table,
// the store's live source (async.Pump.DestProfiles in production).
type liveDests map[string]*liveDest

type liveDest struct {
	DestSnapshot
	hist *obs.Histogram
}

func (l liveDests) dest(name string) *liveDest {
	if l[name] == nil {
		l[name] = &liveDest{hist: obs.NewHistogram(nil)}
	}
	return l[name]
}

// call scripts one engine execution.
func (l liveDests) call(name string, d time.Duration, failed bool) {
	ld := l.dest(name)
	ld.Calls++
	if failed {
		ld.Failures++
	}
	ld.hist.ObserveDuration(d)
	if ld.EWMA == 0 {
		ld.EWMA = d.Seconds()
	} else {
		ld.EWMA += 0.2 * (d.Seconds() - ld.EWMA)
	}
}

func (l liveDests) snapshot() map[string]*DestSnapshot {
	out := make(map[string]*DestSnapshot, len(l))
	for name, ld := range l {
		ds := ld.DestSnapshot
		ds.Latency = NewHistSnap(ld.hist.Snapshot())
		out[name] = &ds
	}
	return out
}

func seedStore(node string) (*Store, liveDests) {
	live := liveDests{}
	for i := 0; i < 100; i++ {
		live.call("altavista", 100*time.Millisecond, false)
	}
	for i := 0; i < 10; i++ {
		live.call("altavista", 2*time.Second, i < 5)
	}
	av := live.dest("altavista")
	av.Retries, av.CacheHits, av.PeerHits, av.Timeouts = 1, 2, 1, 1
	live.call("moviefone", 500*time.Millisecond, false)
	s := NewStore(node, live.snapshot)
	s.QueryObserved(300*time.Millisecond, 8)
	s.QueryObserved(50*time.Millisecond, 2)
	return s, live
}

// derived reads one destination through Snapshot().Derive(), the store's
// read surface.
func derived(s *Store, dest string) (Profile, bool) {
	profiles, _ := s.Snapshot().Derive()
	for _, p := range profiles {
		if p.Dest == dest {
			return p, true
		}
	}
	return Profile{}, false
}

func TestDerivedProfile(t *testing.T) {
	s, _ := seedStore("w1")
	p, ok := derived(s, "altavista")
	if !ok {
		t.Fatal("altavista not profiled")
	}
	if p.Calls != 110 || p.Failures != 5 || p.Retries != 1 || p.Timeouts != 1 {
		t.Errorf("counters: %+v", p)
	}
	// 100 fast + 10 slow calls: the median lands near 100ms, p99 near 2s.
	if p.P50 <= 0 || p.P50 > 0.5 {
		t.Errorf("p50 = %v, want ~0.1s", p.P50)
	}
	if p.P99 < 0.5 {
		t.Errorf("p99 = %v, want ~2s", p.P99)
	}
	if p.EWMA <= 0 {
		t.Errorf("ewma = %v", p.EWMA)
	}
	// 3 cache/peer hits absorbed vs 110 issued calls.
	if want := 3.0 / 113.0; p.CacheHitRate < want-1e-9 || p.CacheHitRate > want+1e-9 {
		t.Errorf("cache hit rate = %v, want %v", p.CacheHitRate, want)
	}
	if want := 5.0 / 110.0; p.FailureRate != want {
		t.Errorf("failure rate = %v, want %v", p.FailureRate, want)
	}

	if _, ok := derived(s, "lycos"); ok {
		t.Error("unknown destination reported a profile")
	}
	profiles, q := s.Snapshot().Derive()
	if len(profiles) != 2 || profiles[0].Dest != "altavista" || profiles[1].Dest != "moviefone" {
		t.Errorf("destinations = %+v", profiles)
	}
	if q.Queries != 2 {
		t.Errorf("queries = %d", q.Queries)
	}
	if q.MeanFan != 5 {
		t.Errorf("mean fanout = %v, want 5", q.MeanFan)
	}
	if q.P95 <= 0 {
		t.Errorf("query p95 = %v", q.P95)
	}
}

func TestNilStoreNoops(t *testing.T) {
	var s *Store
	s.QueryObserved(time.Second, 1)
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "profiles.json")
	s, _ := seedStore("w1")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}

	// A fresh store (restart) loads the snapshot as its base: history is
	// visible immediately and merges with new live observations.
	live2 := liveDests{}
	s2 := NewStore("w1", live2.snapshot)
	if err := s2.Load(path); err != nil {
		t.Fatalf("load: %v", err)
	}
	p, ok := derived(s2, "altavista")
	if !ok || p.Calls != 110 {
		t.Fatalf("reloaded profile: ok=%v calls=%d, want 110", ok, p.Calls)
	}
	if p.P99 < 0.5 {
		t.Errorf("reloaded p99 = %v: histogram did not survive the disk trip", p.P99)
	}
	live2.call("altavista", time.Second, false)
	if p, _ = derived(s2, "altavista"); p.Calls != 111 {
		t.Errorf("live+base merge: calls = %d, want 111", p.Calls)
	}
	if _, q := s2.Snapshot().Derive(); q.Queries != 2 {
		t.Errorf("reloaded query profile: %d queries", q.Queries)
	}

	// Re-saving carries the whole history forward, not just the delta.
	if err := s2.Save(path); err != nil {
		t.Fatal(err)
	}
	s3 := NewStore("w1", liveDests{}.snapshot)
	if err := s3.Load(path); err != nil {
		t.Fatal(err)
	}
	if p, _ = derived(s3, "altavista"); p.Calls != 111 {
		t.Errorf("second-generation snapshot: calls = %d, want 111", p.Calls)
	}
}

// TestLoadParentSnapshot: testdata/parent_snapshot.json was written by
// Store.Save at the commit before the store became a view of the pump's
// records (same seeding as seedStore, plus one hedge). The on-disk format
// did not move: it loads as the base, merges with live records, and
// re-saves byte-compatibly.
func TestLoadParentSnapshot(t *testing.T) {
	live := liveDests{}
	s := NewStore("w1", live.snapshot)
	if err := s.Load(filepath.Join("testdata", "parent_snapshot.json")); err != nil {
		t.Fatalf("parent-written snapshot rejected: %v", err)
	}
	live.call("altavista", time.Second, true)
	p, ok := derived(s, "altavista")
	want := Profile{Calls: 111, Failures: 6, Retries: 1, Hedges: 1, Timeouts: 1, CacheHits: 2, PeerHits: 1}
	got := Profile{Calls: p.Calls, Failures: p.Failures, Retries: p.Retries, Hedges: p.Hedges, Timeouts: p.Timeouts, CacheHits: p.CacheHits, PeerHits: p.PeerHits}
	if !ok || got != want {
		t.Errorf("parent history + one live call = %+v, want %+v", got, want)
	}
	if p.P50 <= 0 || p.P50 > 0.5 || p.P99 < 0.5 {
		t.Errorf("parent latency sketch unreadable: p50=%v p99=%v", p.P50, p.P99)
	}
	if _, q := s.Snapshot().Derive(); q.Queries != 2 || q.MeanFan != 5 {
		t.Errorf("parent query profile: %+v", q)
	}

	parent, err := os.ReadFile(filepath.Join("testdata", "parent_snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewStore("w1", liveDests{}.snapshot)
	if err := fresh.Load(filepath.Join("testdata", "parent_snapshot.json")); err != nil {
		t.Fatal(err)
	}
	resaved := filepath.Join(t.TempDir(), "resaved.json")
	if err := fresh.Save(resaved); err != nil {
		t.Fatal(err)
	}
	now, _ := os.ReadFile(resaved)
	stamp := regexp.MustCompile(`"saved_at": "[^"]*"`)
	if a, b := stamp.ReplaceAll(parent, nil), stamp.ReplaceAll(now, nil); !bytes.Equal(a, b) {
		t.Errorf("re-saved parent snapshot differs from the parent's bytes (saved_at aside):\n%s\n---\n%s", a, b)
	}
}

// TestLoadCorruptSnapshot: a truncated, corrupt, or version-mismatched
// snapshot must load as an empty base with a loggable error — never
// crash, never leave the store unusable.
func TestLoadCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	seeded, _ := seedStore("w1")
	good, _ := json.Marshal(seeded.Snapshot())

	cases := map[string][]byte{
		"truncated": good[:len(good)/2],
		"garbage":   []byte("{not json at all"),
		"empty":     {},
		"version":   []byte(`{"version": 999, "dests": {}}`),
	}
	for name, data := range cases {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		live := liveDests{}
		s := NewStore("w1", live.snapshot)
		if err := s.Load(path); err == nil {
			t.Errorf("%s: Load returned nil error", name)
		}
		// The store must still work end to end.
		live.call("altavista", time.Second, false)
		if p, ok := derived(s, "altavista"); !ok || p.Calls != 1 {
			t.Errorf("%s: store unusable after bad load: ok=%v %+v", name, ok, p)
		}
		if err := s.Save(filepath.Join(dir, name+"-resave.json")); err != nil {
			t.Errorf("%s: save after bad load: %v", name, err)
		}
	}

	// Missing file is a clean first start: no error at all.
	s := NewStore("w1", liveDests{}.snapshot)
	if err := s.Load(filepath.Join(dir, "nonexistent.json")); err != nil {
		t.Errorf("missing snapshot: %v", err)
	}
}

func TestMergeSnapshots(t *testing.T) {
	w1, _ := seedStore("w1")
	a := w1.Snapshot()
	live := liveDests{}
	live.call("altavista", time.Second, true)
	live.call("lycos", 100*time.Millisecond, false)
	b := NewStore("w2", live.snapshot)
	b.QueryObserved(time.Second, 4)

	merged := MergeSnapshots("coord", a, b.Snapshot(), nil)
	if merged.Node != "coord" {
		t.Errorf("node = %q", merged.Node)
	}
	profiles, q := merged.Derive()
	byDest := map[string]Profile{}
	for _, p := range profiles {
		byDest[p.Dest] = p
	}
	if p := byDest["altavista"]; p.Calls != 111 || p.Failures != 6 {
		t.Errorf("merged altavista: %+v", p)
	}
	if _, ok := byDest["lycos"]; !ok {
		t.Error("lycos missing from merge")
	}
	if q.Queries != 3 {
		t.Errorf("merged queries = %d, want 3", q.Queries)
	}
	// EWMA blend is call-weighted, so it must sit between the inputs.
	ae := a.Dests["altavista"].EWMA
	if got := byDest["altavista"].EWMA; got < min(ae, 1) || got > max(ae, 1) {
		t.Errorf("merged ewma %v outside [%v, 1]", got, ae)
	}
}

func TestMergeHistMismatchedBounds(t *testing.T) {
	a := HistSnap{Bounds: []float64{1, 2}, Counts: []int64{5, 3, 1}, Count: 9, Sum: 10}
	b := HistSnap{Bounds: []float64{1, 2, 4}, Counts: []int64{1, 1, 1, 1}, Count: 4, Sum: 8}
	m := mergeHist(a, b)
	// Counts and Sum always add exactly; the sketch keeps the larger side.
	if m.Count != 13 || m.Sum != 18 {
		t.Errorf("count=%d sum=%v", m.Count, m.Sum)
	}
	if len(m.Bounds) != 2 {
		t.Errorf("kept bounds %v, want a's (more observations)", m.Bounds)
	}
}

// TestSnapshotterFinalSave: StartSnapshots writes one final snapshot on
// context cancellation — the graceful-shutdown flush wsqd waits on.
func TestSnapshotterFinalSave(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "profiles.json")
	s, _ := seedStore("w1")

	ctx, cancel := context.WithCancel(context.Background())
	wg := s.StartSnapshots(ctx, path, time.Hour, nil) // interval never fires
	cancel()
	wg.Wait()

	s2 := NewStore("w1", liveDests{}.snapshot)
	if err := s2.Load(path); err != nil {
		t.Fatalf("final snapshot unreadable: %v", err)
	}
	if p, ok := derived(s2, "altavista"); !ok || p.Calls != 110 {
		t.Errorf("final snapshot content: ok=%v %+v", ok, p)
	}

	// Empty path disables snapshotting without goroutine leaks.
	wg2 := s.StartSnapshots(context.Background(), "", time.Hour, nil)
	wg2.Wait()
}

func TestProfilesHandler(t *testing.T) {
	s, _ := seedStore("w1")
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/profiles", nil))
	var view struct {
		Node         string       `json:"node"`
		Destinations []Profile    `json:"destinations"`
		Query        QueryProfile `json:"query"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if view.Node != "w1" || len(view.Destinations) != 2 || view.Query.Queries != 2 {
		t.Errorf("derived view: node=%q dests=%d queries=%d", view.Node, len(view.Destinations), view.Query.Queries)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/profiles?format=snapshot", nil))
	var sn Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &sn); err != nil {
		t.Fatal(err)
	}
	if sn.Version != SnapshotVersion || sn.Dests["altavista"] == nil {
		t.Errorf("snapshot form: version=%d dests=%v", sn.Version, sn.Dests)
	}

}
