package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/cache"
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
	t.Cleanup(func() { closeServer(t, opt.ID, srv, w) })
	return w, srv
}

func getCache(t *testing.T, base, key string, waitMS int) (int, []types.Tuple) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/shard/cache/get?key=%s&wait_ms=%d", base, key, waitMS))
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

func TestWorkerCacheGetFillRoundTrip(t *testing.T) {
	w, srv := newProtoWorker(t, WorkerOptions{})

	// Miss claims the fill obligation.
	if code, _ := getCache(t, srv.URL, "k1", 0); code != http.StatusNotFound {
		t.Fatalf("first get = %d, want 404", code)
	}
	rows := []types.Tuple{{types.Str("texas"), types.Int(12)}}
	postFill(t, srv.URL, "k1", rows)

	code, got := getCache(t, srv.URL, "k1", 0)
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

// TestWorkerPromiseCoalescing: the home shard holds the second misser of
// a key open until the first misser's fill lands, then serves it — one
// engine call tier-wide even when misses race across nodes.
func TestWorkerPromiseCoalescing(t *testing.T) {
	w, srv := newProtoWorker(t, WorkerOptions{})

	// First misser claims the promise.
	if code, _ := getCache(t, srv.URL, "hot", 0); code != http.StatusNotFound {
		t.Fatalf("claiming get = %d, want 404", code)
	}

	type res struct {
		code int
		rows []types.Tuple
	}
	done := make(chan res, 1)
	go func() {
		code, rows := getCache(t, srv.URL, "hot", 5000)
		done <- res{code, rows}
	}()

	// The waiter registers before it parks; only then deliver the fill.
	for w.Stats().PromiseWaits == 0 {
		runtime.Gosched()
	}
	postFill(t, srv.URL, "hot", []types.Tuple{{types.Int(7)}})

	r := <-done
	if r.code != http.StatusOK || len(r.rows) != 1 || r.rows[0][0].I != 7 {
		t.Fatalf("waiting get: code=%d rows=%+v", r.code, r.rows)
	}
	if st := w.Stats(); st.PromiseServed != 1 {
		t.Errorf("promise served = %d, want 1", st.PromiseServed)
	}
}

// TestWorkerPromiseExpiry: if the claimant never fills (it crashed), the
// promise expires and a later misser re-claims instead of waiting forever.
func TestWorkerPromiseExpiry(t *testing.T) {
	w, srv := newProtoWorker(t, WorkerOptions{PromiseTTL: 10 * time.Millisecond})
	if code, _ := getCache(t, srv.URL, "k", 0); code != http.StatusNotFound {
		t.Fatal("claim failed")
	}
	time.Sleep(20 * time.Millisecond)
	// Expired: this get re-claims (immediate 404) rather than lingering.
	start := time.Now()
	if code, _ := getCache(t, srv.URL, "k", 5000); code != http.StatusNotFound {
		t.Fatal("expected re-claim 404")
	}
	if time.Since(start) > time.Second {
		t.Error("get waited on an expired promise")
	}
	if st := w.Stats(); st.RemoteMisses != 2 {
		t.Errorf("misses = %d, want 2", st.RemoteMisses)
	}
}

func TestWorkerDrainRejectsQueries(t *testing.T) {
	inner := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rw.WriteHeader(http.StatusOK)
		fmt.Fprint(rw, `{"rows":[]}`)
	})
	w, srv := newProtoWorker(t, WorkerOptions{Inner: inner, DrainPoll: time.Millisecond})

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
	w, srv := newProtoWorker(t, WorkerOptions{Inner: inner, DrainPoll: time.Millisecond})

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
	if w.InFlight() != 1 {
		t.Fatalf("inflight = %d, want 1", w.InFlight())
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
}

// TestPeersFetchAndFill exercises the client side against a real worker:
// a remote hit decodes rows; a local-homed key short-circuits; a fill is
// delivered asynchronously to the home shard.
func TestPeersFetchAndFill(t *testing.T) {
	home, srv := newProtoWorker(t, WorkerOptions{ID: "home"})
	members := []Member{{ID: "home", URL: srv.URL}, {ID: "me", URL: "http://unused.invalid"}}
	peers := NewPeers("me", Config{Workers: members, VNodes: 16}, PeerOptions{WaitMS: 1})
	t.Cleanup(peers.Close)

	// Seed the home shard and pick a key it actually owns.
	var key string
	for i := 0; ; i++ {
		k := fmt.Sprintf("key-%d", i)
		if m, _ := peers.Ring().Owner(k); m.ID == "home" {
			key = k
			break
		}
	}
	home.opt.Cache.Put(key, []types.Tuple{{types.Int(5)}})

	rows, ok, _ := peers.Fetch(context.Background(), key)
	if !ok || rows[0][0].I != 5 {
		t.Fatalf("fetch = %v %v", rows, ok)
	}

	// A key homed on ourselves is never fetched remotely.
	var selfKey string
	for i := 0; ; i++ {
		k := fmt.Sprintf("self-%d", i)
		if m, _ := peers.Ring().Owner(k); m.ID == "me" {
			selfKey = k
			break
		}
	}
	if _, ok, _ := peers.Fetch(context.Background(), selfKey); ok {
		t.Error("self-homed key reported a peer hit")
	}

	// Fill is queued and shipped by the background sender.
	peers.Fill(key, []types.Tuple{{types.Int(9)}})
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got, ok := home.opt.Cache.Get(key); ok && got[0][0].I == 9 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fill never reached the home shard")
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := peers.Stats()
	if st.FetchHits != 1 || st.SelfHome != 1 || st.FillsSent != 1 {
		t.Errorf("peer stats = %+v", st)
	}
}
