package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/async"
	"repro/internal/cache"
	"repro/internal/exec"
	"repro/internal/types"
)

// newProtoWorker is a protocol-only worker: real cache, no inner wsqd.
func newProtoWorker(t *testing.T, opt WorkerOptions) (*Worker, *httptest.Server) {
	t.Helper()
	skipIfHandlersParked(t)
	if opt.ID == "" {
		opt.ID = "w1"
	}
	if opt.Cache == nil {
		opt.Cache = cache.New(32)
	}
	w := NewWorker(opt)
	srv := httptest.NewServer(w)
	t.Cleanup(func() { closeServer(t, opt.ID, srv) })
	return w, srv
}

// getCache asks base for key, a call of the source named src, as a peer
// does.
func getCache(t *testing.T, base, key, src string) (int, []types.Tuple) {
	t.Helper()
	resp, err := http.Get(base + "/shard/cache/get?key=" + url.QueryEscape(key) + "&src=" + url.QueryEscape(src))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	var out cacheGetResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.Rows
}

func postFill(t *testing.T, base, key string, rows []types.Tuple) {
	t.Helper()
	body, _ := json.Marshal(cacheFillRequest{Key: key, Rows: rows})
	resp, err := http.Post(base+"/shard/cache/fill", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("fill status %d", resp.StatusCode)
	}
}

// TestWorkerCacheGetFillRoundTrip: drain's handoff stores what a later
// ask reads. A worker with no pump serves its cache and refuses every
// miss.
func TestWorkerCacheGetFillRoundTrip(t *testing.T) {
	w, srv := newProtoWorker(t, WorkerOptions{})

	if code, _ := getCache(t, srv.URL, "d|k1", "S"); code == http.StatusOK {
		t.Fatalf("first get = %d, want a refusal", code)
	}
	rows := []types.Tuple{{types.Str("texas"), types.Int(12)}}
	postFill(t, srv.URL, "d|k1", rows)

	code, got := getCache(t, srv.URL, "d|k1", "S")
	if code != http.StatusOK {
		t.Fatalf("post-fill get = %d, want 200", code)
	}
	if len(got) != 1 || got[0][0].S != "texas" || got[0][1].I != 12 {
		t.Fatalf("rows did not round-trip: %+v", got)
	}
	st := w.Stats()
	if st.RemoteHits != 1 || st.RemoteMisses != 1 || st.FillsRecv != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// countSource is the source "S" of destination "d": each call answers
// one row, its key's length, after gate (when set) lets it go, and counts
// itself.
type countSource struct {
	calls atomic.Int64
	gate  chan struct{}
}

func (s *countSource) Name() string                                 { return "S" }
func (s *countSource) Destination() string                          { return "d" }
func (s *countSource) NumEcho() int                                 { return 0 }
func (s *countSource) AppendKey(buf []byte, _ []types.Value) []byte { return buf }
func (s *countSource) Call(key string) func() ([]types.Tuple, error) {
	return func() ([]types.Tuple, error) {
		s.calls.Add(1)
		if s.gate != nil {
			<-s.gate
		}
		return []types.Tuple{{types.Int(int64(len(key)))}}, nil
	}
}

// homeTier is one protocol worker "home" with a pump that resolves the
// source "S", and the peer client of a second worker "me" that asks it.
type homeTier struct {
	home  *Worker
	srv   *httptest.Server
	pump  *async.Pump
	src   *countSource
	peers *Peers // me's
}

func newHomeTier(t *testing.T, opt PeerOptions) *homeTier {
	t.Helper()
	h := &homeTier{src: &countSource{}}
	c := cache.New(32)
	h.pump = async.NewPump(4, 4, c)
	t.Cleanup(func() {
		h.pump.Close()
		h.pump.Quiesce()
	})
	h.pump.SetSources(func(name string) (exec.ExternalSource, error) {
		if name != "S" {
			return nil, fmt.Errorf("no source named %q", name)
		}
		return h.src, nil
	})
	homePeers := NewPeers("home", Config{VNodes: 16}, PeerOptions{})
	t.Cleanup(homePeers.Close)
	h.home, h.srv = newProtoWorker(t, WorkerOptions{ID: "home", Cache: c, Pump: h.pump, Peers: homePeers})
	members := []Member{{ID: "home", URL: h.srv.URL}, {ID: "me", URL: "http://unused.invalid"}}
	homePeers.Update(members, 0)
	h.peers = NewPeers("me", Config{Workers: members, VNodes: 16}, opt)
	t.Cleanup(h.peers.Close)
	return h
}

// key returns the i-th key of destination "d" that worker id homes.
func (h *homeTier) key(id string, i int) string {
	for n := 0; ; n++ {
		k := fmt.Sprintf("d|key-%d", n)
		if m, _ := h.peers.Ring().Owner(k); m.ID == id {
			if i == 0 {
				return k
			}
			i--
		}
	}
}

// TestPeersFetch exercises the client side against a real home worker: a
// cached key is answered from the home's cache, a key homed on the asker
// short-circuits, and an uncached key runs once at the home, whose cache
// then answers the next ask.
func TestPeersFetch(t *testing.T) {
	h := newHomeTier(t, PeerOptions{})
	ctx := context.Background()

	// The home's pump looks a missed key up again in the same cache, so
	// an ask moves that cache's counts exactly as one lookup would.
	c := h.home.opt.Cache
	counts := func(what string, wantHits, wantMisses int64, ask func()) {
		t.Helper()
		hits0, misses0 := c.Stats()
		ask()
		if hits, misses := c.Stats(); hits-hits0 != wantHits || misses-misses0 != wantMisses {
			t.Errorf("%s moved the home cache's hits by %d and misses by %d, want %d and %d",
				what, hits-hits0, misses-misses0, wantHits, wantMisses)
		}
	}

	cached := h.key("home", 0)
	c.Put(cached, []types.Tuple{{types.Int(5)}})
	counts("an ask of a cached key", 1, 0, func() {
		if rows, ok, _ := h.peers.Fetch(ctx, "S", cached); !ok || rows[0][0].I != 5 {
			t.Fatalf("fetch of a cached key = %v %v", rows, ok)
		}
	})

	if _, ok, _ := h.peers.Fetch(ctx, "S", h.key("me", 0)); ok {
		t.Error("self-homed key reported a peer hit")
	}

	cold := h.key("home", 1)
	fetchCold := func() {
		rows, ok, _ := h.peers.Fetch(ctx, "S", cold)
		if !ok || rows[0][0].I != int64(len(cold)) {
			t.Fatalf("fetch of a cold key = %v %v", rows, ok)
		}
	}
	counts("an uncached ask", 0, 1, fetchCold)
	counts("a cached ask", 1, 0, fetchCold)
	if n := h.src.calls.Load(); n != 1 {
		t.Errorf("home executed the cold key %d times, want 1", n)
	}
	st := h.peers.Stats()
	if st.FetchHits != 3 || st.SelfHome != 1 || st.FetchMisses != 0 || st.FetchErrors != 0 {
		t.Errorf("peer stats = %+v", st)
	}
	if ws := h.home.Stats(); ws.RemoteHits != 2 || ws.RemoteMisses != 1 {
		t.Errorf("home stats = %+v; want 2 hits (cached key, second cold ask), 1 miss", ws)
	}
}

// TestWorkerCacheGetRefusesUnknownSource: an ask naming a source the
// home cannot resolve is a 400, and nothing runs.
func TestWorkerCacheGetRefusesUnknownSource(t *testing.T) {
	h := newHomeTier(t, PeerOptions{})
	if code, _ := getCache(t, h.srv.URL, h.key("home", 0), "NoSuchTable"); code != http.StatusBadRequest {
		t.Errorf("ask with an unknown source = %d, want 400", code)
	}
	if n := h.src.calls.Load(); n != 0 {
		t.Errorf("%d calls ran", n)
	}
}

// TestWorkerCacheGetRefusesKeyOfAnotherEngine: an ask whose key is not a
// call of the named source's engine is a 400: run by that source, it
// would cache a wrong answer under the key.
func TestWorkerCacheGetRefusesKeyOfAnotherEngine(t *testing.T) {
	h := newHomeTier(t, PeerOptions{})
	for n := 0; ; n++ {
		k := fmt.Sprintf("google|key-%d", n)
		if m, _ := h.peers.Ring().Owner(k); m.ID != "home" {
			continue
		}
		if code, _ := getCache(t, h.srv.URL, k, "S"); code != http.StatusBadRequest {
			t.Errorf("ask for %q of source S (engine d) = %d, want 400", k, code)
		}
		break
	}
	if n := h.src.calls.Load(); n != 0 {
		t.Errorf("%d calls ran", n)
	}
}

// TestWorkerCacheGetRefusesKeyHomedElsewhere: a worker answers 404 for a
// key its own ring homes on another worker, and runs nothing; the asker
// then runs the call itself.
func TestWorkerCacheGetRefusesKeyHomedElsewhere(t *testing.T) {
	h := newHomeTier(t, PeerOptions{})
	if code, _ := getCache(t, h.srv.URL, h.key("me", 0), "S"); code != http.StatusNotFound {
		t.Errorf("ask for a key homed on me = %d, want 404", code)
	}
	if n := h.src.calls.Load(); n != 0 {
		t.Errorf("%d calls ran", n)
	}
}

// TestWorkerAskerHangUpDiscardsQueuedCall: an asker that gives up while
// the home's call is still queued there takes the home's registration
// with it: the call never runs, and the drained pump holds nothing.
func TestWorkerAskerHangUpDiscardsQueuedCall(t *testing.T) {
	h := newHomeTier(t, PeerOptions{})
	h.pump.SetDestLimit("d", 0) // every call of "d" stays queued
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, ok, _ := h.peers.Fetch(ctx, "S", h.key("home", 0)); ok {
		t.Fatal("an ask with no slot to run in was answered")
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("ask returned after %v; want it to end with its 20ms context", took)
	}
	deadline := time.Now().Add(2 * time.Second)
	for h.pump.Held() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	h.pump.Quiesce()
	if held := h.pump.Held(); held != 0 {
		t.Errorf("home pump holds %d calls after its asker hung up", held)
	}
	if running, queued := h.pump.Active(); running != 0 || queued != 0 {
		t.Errorf("home pump: %d running, %d queued; want 0, 0", running, queued)
	}
	if n := h.src.calls.Load(); n != 0 {
		t.Errorf("%d calls ran", n)
	}
}

func TestWorkerDrainRejectsQueries(t *testing.T) {
	inner := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rw.WriteHeader(http.StatusOK)
		fmt.Fprint(rw, `{"rows":[]}`)
	})
	w, srv := newProtoWorker(t, WorkerOptions{Inner: inner})

	resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader([]byte(`{"sql":"SELECT 1"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain query = %d", resp.StatusCode)
	}

	dresp, err := http.Post(srv.URL+"/shard/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var dr drainResponse
	json.NewDecoder(dresp.Body).Decode(&dr)
	dresp.Body.Close()
	if !w.Draining() {
		t.Fatal("worker not draining after /shard/drain")
	}

	resp, err = http.Post(srv.URL+"/query", "application/json", bytes.NewReader([]byte(`{"sql":"SELECT 1"}`)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining query = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining 503 missing Retry-After")
	}
	if st := w.Stats(); st.DrainRejects != 1 {
		t.Errorf("drain rejects = %d, want 1", st.DrainRejects)
	}
}

// TestWorkerDrainWaitsForInflight: drain must not complete while a query
// is still executing in the inner handler.
func TestWorkerDrainWaitsForInflight(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	inner := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		rw.WriteHeader(http.StatusOK)
	})
	w, srv := newProtoWorker(t, WorkerOptions{Inner: inner})

	qdone := make(chan int, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader([]byte(`{"sql":"x"}`)))
		if err != nil {
			qdone <- -1
			return
		}
		resp.Body.Close()
		qdone <- resp.StatusCode
	}()
	<-entered

	drained := make(chan struct{})
	go func() {
		resp, err := http.Post(srv.URL+"/shard/drain", "application/json", nil)
		if err == nil {
			resp.Body.Close()
		}
		close(drained)
	}()

	select {
	case <-drained:
		t.Fatal("drain completed with a query still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	if n := w.inflight.Load(); n != 1 {
		t.Fatalf("inflight = %d, want 1", n)
	}
	close(release)
	if code := <-qdone; code != http.StatusOK {
		t.Fatalf("in-flight query finished with %d", code)
	}
	select {
	case <-drained:
	case <-time.After(2 * time.Second):
		t.Fatal("drain did not complete after the query finished")
	}
}

// TestWorkerDrainOutlastsEveryAdmittedQuery: queries race a drain. A
// query is counted before it reads draining, so every one the inner
// handler ran had finished when drain returned, and none ran after.
func TestWorkerDrainOutlastsEveryAdmittedQuery(t *testing.T) {
	const clients = 8
	var started, finished atomic.Int64
	warm := make(chan struct{}) // every client is in its loop
	inner := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if started.Add(1) == 4*clients {
			close(warm)
		}
		finished.Add(1)
		rw.WriteHeader(http.StatusOK)
	})
	_, srv := newProtoWorker(t, WorkerOptions{Inner: inner})

	var answered200 atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(`{"sql":"x"}`))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					return // turned away: the worker drains
				}
				answered200.Add(1)
			}
		}()
	}
	<-warm

	resp, err := http.Post(srv.URL+"/shard/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	ran, done := started.Load(), finished.Load()
	if ran != done {
		t.Errorf("drain returned with %d of %d admitted queries still running", ran-done, ran)
	}
	wg.Wait()
	if n := started.Load(); n != ran {
		t.Errorf("%d queries ran after drain returned", n-ran)
	}
	if n := answered200.Load(); n != started.Load() {
		t.Errorf("%d queries answered 200, %d ran", n, started.Load())
	}
}

// TestWorkerLimits: coordinator-pushed budgets reach the pump. Uses a
// nil pump (no-op) for the decode path and asserts 204.
func TestWorkerLimitsEndpoint(t *testing.T) {
	_, srv := newProtoWorker(t, WorkerOptions{})
	body, _ := json.Marshal(limitsRequest{Limits: map[string]int{"altavista": 2}})
	resp, err := http.Post(srv.URL+"/shard/limits", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("limits status %d", resp.StatusCode)
	}
}

// TestWorkerMembershipUpdatesPeers: a membership push swaps the peer
// client's ring.
func TestWorkerMembershipUpdatesPeers(t *testing.T) {
	peers := NewPeers("w1", Config{Workers: testMembers(1)}, PeerOptions{})
	t.Cleanup(peers.Close)
	_, srv := newProtoWorker(t, WorkerOptions{Peers: peers})

	body, _ := json.Marshal(membershipRequest{Workers: testMembers(3), VNodes: 16})
	resp, err := http.Post(srv.URL+"/shard/membership", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("membership status %d", resp.StatusCode)
	}
	if peers.Ring().Len() != 3 {
		t.Errorf("peer ring has %d members, want 3", peers.Ring().Len())
	}
	if v := peers.Ring().vnodes; v != 16 {
		t.Errorf("peer ring has %d virtual nodes per member, want the pushed 16", v)
	}
}

// TestPeersFetchEndsWithItsCaller: a peer get is bounded by its caller's
// context, not only by FetchTimeout. Against a home shard that answers
// nothing until the test ends, with a 10 s FetchTimeout, a caller that
// gives up at 20 ms gets its miss within a second; a request built on a
// context of its own would wait out the whole FetchTimeout.
func TestPeersFetchEndsWithItsCaller(t *testing.T) {
	hang := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { <-hang }))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(hang) })
	peers := NewPeers("me", Config{Workers: []Member{{ID: "home", URL: srv.URL}}}, PeerOptions{FetchTimeout: 10 * time.Second})
	t.Cleanup(peers.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	rows, ok, _ := peers.Fetch(ctx, "S", "d|k")
	if took := time.Since(start); ok || took > time.Second {
		t.Fatalf("Fetch = %v, %v after %v; want a miss within 1s of a caller that gave up at 20ms", rows, ok, took)
	}
}
