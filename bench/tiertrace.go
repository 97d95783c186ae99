package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/shard"
)

// tierLanes are the traced run's extra lanes on the tier workload, one
// per way of reaching the hot query path.
type tierLanes struct {
	serve  *lane // Server.ServeHTTP into a recorder, no network
	direct *lane // loopback HTTP straight to the query's home worker
	traced *lane // via the coordinator with timing middleware on every hop
	// coordSelfUS is, per traced request, the coordinator's span minus
	// the worker span inside it.
	coordSelfUS []float64
}

// hopLog collects the timing middleware's spans; the tracer drains it
// after each request.
type hopLog struct {
	mu   sync.Mutex
	hops []hop
}

type hop struct {
	name       string
	start, end time.Duration
}

// timed wraps a handler so each /query it serves leaves a span.
func (l *hopLog) timed(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/query" {
			next.ServeHTTP(w, r)
			return
		}
		start := sinceEpoch()
		next.ServeHTTP(w, r)
		end := sinceEpoch()
		l.mu.Lock()
		l.hops = append(l.hops, hop{name, start, end})
		l.mu.Unlock()
	})
}

func (l *hopLog) drain() []hop {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.hops
	l.hops = nil
	return out
}

// newTierLanes builds the lanes that time the serving stack's hops from
// outside: the inner server without a network, the home worker over
// loopback, and the full path with timing middleware around the
// coordinator, the worker and the inner server
// (client.request ⊃ shard.coordinator ⊃ shard.worker ⊃ server.handle).
func newTierLanes(ctx context.Context, fx *fixture, log *spanLog) *tierLanes {
	t := fx.tier
	out := &tierLanes{}

	inner := t.nodes[0].inner
	out.serve = &lane{do: func(_ int, sql string) (digest, error) {
		body, err := json.Marshal(server.QueryRequest{SQL: sql})
		if err != nil {
			return digest{}, err
		}
		req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)).WithContext(ctx)
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return digest{}, fmt.Errorf("ServeHTTP: status %d: %s", rec.Code, rec.Body.String())
		}
		var resp server.QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return digest{}, err
		}
		return digestJSON(resp.Rows), nil
	}}

	var members []shard.Member
	direct := map[string]*server.Client{}
	for _, nd := range t.nodes {
		members = append(members, shard.Member{ID: nd.id, URL: nd.url})
		direct[nd.id] = server.NewClient(nd.url)
	}
	ring := shard.NewRing(members, 0)
	out.direct = &lane{do: func(_ int, sql string) (digest, error) {
		home, ok := ring.Owner(shard.RouteKey(sql))
		if !ok {
			return digest{}, fmt.Errorf("no home worker for %q", sql)
		}
		resp, err := direct[home.ID].Query(ctx, sql, 0)
		if err != nil {
			return digest{}, err
		}
		return digestJSON(resp.Rows), nil
	}}

	hops := &hopLog{}
	plainCoord := t.coordHandler.h
	parent := map[string]string{"shard.coordinator": "client.request", "shard.worker": "shard.coordinator", "server.handle": "shard.worker"}
	out.traced = &lane{
		maxN: maxStepwise,
		enter: func() {
			t.coordHandler.h = hops.timed("shard.coordinator", plainCoord)
			for _, nd := range t.nodes {
				nd.handler.h = hops.timed("shard.worker", nd.worker)
				nd.innerSwap.h = hops.timed("server.handle", nd.inner)
			}
		},
		leave: func() {
			t.coordHandler.h = plainCoord
			for _, nd := range t.nodes {
				nd.handler.h, nd.innerSwap.h = nd.worker, nd.inner
			}
		},
		do: func(qid int, sql string) (digest, error) {
			start := sinceEpoch()
			resp, err := t.client.Query(ctx, sql, 0)
			end := sinceEpoch()
			if err != nil {
				return digest{}, err
			}
			log.add(qid, "client.request", "", start, end)
			var coordD, workerD time.Duration
			for _, h := range hops.drain() {
				log.add(qid, h.name, parent[h.name], h.start, h.end)
				switch h.name {
				case "shard.coordinator":
					coordD = h.end - h.start
				case "shard.worker":
					workerD = h.end - h.start
				}
			}
			out.coordSelfUS = append(out.coordSelfUS, us(coordD-workerD))
			return digestJSON(resp.Rows), nil
		},
	}
	return out
}
