package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/search"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/websim"
)

// fixture is one workload set up and ready to be timed: the seeded
// queries, the digest each must produce, the replay engines, and the
// program under test configured as the workload says.
type fixture struct {
	spec    *spec
	queries []string
	want    map[string]digest
	engines engineSet

	// db is the database the queries run against in-process. On the tier
	// workload it is the first worker's, kept for the traced run's
	// stepwise execution; the timed queries go through tier.client.
	db   *core.DB
	tier *tier

	insertRowsPerS float64
	dir            string
	closers        []func() error
}

// tier is the tier_hot serving stack: two workers and a coordinator on
// loopback, all in this process.
type tier struct {
	nodes  []*tierNode
	client *server.Client // talks to the coordinator
	// coordHandler fronts the coordinator's listener so the traced run can
	// time the hop from outside.
	coordHandler *swapHandler
}

type tierNode struct {
	id     string
	db     *core.DB
	inner  *server.Server
	worker *shard.Worker
	url    string
	// handler fronts the worker's listener and innerSwap sits between the
	// worker and its inner server, so the traced run can time both.
	handler   *swapHandler
	innerSwap *swapHandler
}

// swapHandler lets the traced run wrap a listener's handler with timing
// middleware after the listener is already serving.
type swapHandler struct{ h http.Handler }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.h.ServeHTTP(w, r) }

// tableSeed decorrelates the table generator from the query generator
// while keeping both functions of the one seed.
const tableSeed = 0x5eed7ab1e

// setUp builds a workload's fixture under root: corpus build, replay
// recording and reference digests (one pass of the paper's baseline
// executor over the recording engines), DB open, table load and cache
// warm. Everything it times is what setup_s reports.
func setUp(ctx context.Context, sp *spec, seed int64, root string) (fx *fixture, err error) {
	dir, err := os.MkdirTemp(root, "db-")
	if err != nil {
		return nil, err
	}
	fx = &fixture{spec: sp, dir: dir, want: make(map[string]digest)}
	defer func() {
		if err != nil {
			err = errors.Join(err, fx.close())
			fx = nil
		}
	}()

	members := []shard.Member{{ID: "w1"}, {ID: "w2"}}
	fx.queries, err = sp.queries(search.NewRand(seed))
	if err != nil {
		return fx, err
	}
	if sp.tier {
		if fx.queries, err = routeVariants(fx.queries, members); err != nil {
			return fx, err
		}
	}
	if sp.web {
		corpus := websim.Build(websim.DefaultConfig())
		sl := newSleeper()
		fx.closers = append(fx.closers, sl.close)
		fx.engines = engineSet{
			newReplayEngine(websim.NewAltaVista(corpus), sl),
			newReplayEngine(websim.NewGoogle(corpus), sl),
		}
	}

	// Reference pass: synchronous, cache off, one tuple at a time — the
	// paper's baseline executor. It runs over the recording engines, so
	// the same pass fills the replay maps.
	ref, err := fx.openDB(ctx, "ref", seed, core.Config{})
	if err != nil {
		return fx, err
	}
	for _, q := range fx.queries {
		res, err := ref.QueryContextOpts(ctx, q, core.QueryOptions{BatchSize: 1})
		if err != nil {
			return fx, errors.Join(fmt.Errorf("reference %s: %w", q, err), ref.Close())
		}
		fx.want[q] = digestTuples(res.Rows)
	}
	if err := ref.Close(); err != nil {
		return fx, err
	}
	fx.engines.seal()

	cfg := core.Config{Async: true, CacheSize: sp.cache}
	if sp.tier {
		err = fx.openTier(ctx, seed, cfg, members)
	} else {
		if fx.db, err = fx.openDB(ctx, "db", seed, cfg); err == nil {
			fx.closers = append(fx.closers, fx.db.Close)
		}
	}
	if err != nil {
		return fx, err
	}

	if sp.warm {
		if err := fx.warm(ctx); err != nil {
			return fx, err
		}
	}
	fx.engines.setLatency(sp.latency)
	fx.engines.resetCounters()
	return fx, nil
}

// openDB opens a database under the fixture's directory with the replay
// engines registered and the workload's tables loaded.
func (fx *fixture) openDB(ctx context.Context, name string, seed int64, cfg core.Config) (*core.DB, error) {
	cfg.Dir = filepath.Join(fx.dir, name)
	if err := os.Mkdir(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	db, err := core.Open(cfg)
	if err != nil {
		return nil, err
	}
	if fx.spec.web {
		db.RegisterEngine(fx.engines[0], "AV")
		db.RegisterEngine(fx.engines[1], "G")
		err = harness.LoadPaperTables(ctx, db)
	}
	if err == nil && fx.spec.tables != nil {
		fx.insertRowsPerS, err = fx.spec.tables(ctx, db, search.NewRand(seed^tableSeed))
	}
	if err != nil {
		return nil, errors.Join(err, db.Close())
	}
	return db, nil
}

// openTier starts two workers (each server.New over its own DB, peers
// wired) and a coordinator, every listener on 127.0.0.1:0.
func (fx *fixture) openTier(ctx context.Context, seed int64, cfg core.Config, members []shard.Member) error {
	t := &tier{}
	fx.tier = t
	listen := func(h http.Handler) (string, *swapHandler, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", nil, err
		}
		sh := &swapHandler{h: h}
		hs := &http.Server{Handler: sh}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = hs.Serve(ln) // returns ErrServerClosed once Close is called below
		}()
		fx.closers = append(fx.closers, func() error {
			err := hs.Close()
			<-done
			return err
		})
		return "http://" + ln.Addr().String(), sh, nil
	}
	for i := range members {
		id := members[i].ID
		db, err := fx.openDB(ctx, id, seed, cfg)
		if err != nil {
			return err
		}
		fx.closers = append(fx.closers, db.Close)
		peers := shard.NewPeers(id, shard.Config{}, shard.PeerOptions{})
		fx.closers = append(fx.closers, func() error { peers.Close(); return nil })
		db.Pump().SetCachePeer(peers)
		inner := server.New(db, server.Options{Node: id})
		innerSwap := &swapHandler{h: inner}
		w := shard.NewWorker(shard.WorkerOptions{ID: id, Inner: innerSwap, Cache: db.Cache(), Pump: db.Pump(), Peers: peers})
		url, sh, err := listen(w)
		if err != nil {
			return err
		}
		members[i].URL = url
		t.nodes = append(t.nodes, &tierNode{id: id, db: db, inner: inner, worker: w, url: url, handler: sh, innerSwap: innerSwap})
	}
	fx.db = t.nodes[0].db
	coord := shard.NewCoordinator(shard.Config{Workers: members}, shard.CoordinatorOptions{})
	fx.closers = append(fx.closers, func() error { coord.Close(); return nil })
	if err := coord.Sync(ctx); err != nil {
		return err
	}
	url, sh, err := listen(coord.Handler())
	if err != nil {
		return err
	}
	t.coordHandler, t.client = sh, server.NewClient(url)
	return nil
}

// warm runs the query set at zero latency until a whole pass reaches no
// engine and (on the tier) no peer: from then on the timed phase is
// steady state.
func (fx *fixture) warm(ctx context.Context) error {
	for pass := 0; pass < 8; pass++ {
		calls, peer := fx.engines.calls(), fx.peerHits()
		for _, q := range fx.queries {
			if _, err := fx.query(ctx, q); err != nil {
				return fmt.Errorf("warm %s: %w", q, err)
			}
		}
		if fx.engines.calls() == calls && fx.peerHits() == peer {
			return nil
		}
	}
	return fmt.Errorf("%s: cache still cold after 8 warm passes", fx.spec.name)
}

// peerHits is the number of engine calls the tier's workers resolved
// from each other's caches.
func (fx *fixture) peerHits() (n int64) {
	if fx.tier == nil {
		return 0
	}
	for _, nd := range fx.tier.nodes {
		n += nd.db.Pump().Stats().PeerHits
	}
	return n
}

// query issues one query the way the workload's caller does and digests
// the answer.
func (fx *fixture) query(ctx context.Context, sql string) (digest, error) {
	if fx.tier != nil {
		resp, err := fx.tier.client.Query(ctx, sql, 0)
		if err != nil {
			return digest{}, err
		}
		return digestJSON(resp.Rows), nil
	}
	res, err := fx.db.QueryContext(ctx, sql)
	if err != nil {
		return digest{}, err
	}
	return digestTuples(res.Rows), nil
}

// close stops listeners, closes databases and removes the directory, in
// reverse order of creation.
func (fx *fixture) close() error {
	var errs []error
	for i := len(fx.closers) - 1; i >= 0; i-- {
		if err := fx.closers[i](); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	fx.closers = nil
	errs = append(errs, os.RemoveAll(fx.dir))
	return errors.Join(errs...)
}
