// Fixture package for the ctxflow rule: loaded as
// "repro/internal/async" so the Pump type resolution and the scope for
// exported-function checks both apply.
package async

import (
	"context"
	"net/http"
	"time"
)

// Pump mimics async.Pump for receiver-type resolution.
type Pump struct{}

func (p *Pump) RegisterCtx(ctx context.Context, dest string) int { return 0 }
func (p *Pump) AwaitAnyCtx(ctx context.Context) (int, error)     { return 0, nil }
func (p *Pump) PeekRound(ctx context.Context, keys []string)     {}
func (p *Pump) RequestRound(ctx context.Context, keys []string)  {}

// NotAPump has a pump-op method name on a non-Pump receiver; type info
// must keep it from matching.
type NotAPump struct{}

func (n *NotAPump) RegisterCtx(name string) {}

// --- positives --------------------------------------------------------

func LeakyRegister(p *Pump) int { // want "takes no context.Context"
	return p.RegisterCtx(context.TODO(), "google") // want "detaches this call"
}

func LeakyAwait(p *Pump) { // want "takes no context.Context"
	_, _ = p.AwaitAnyCtx(nil)
}

// A binding round's cache probe behind a wrapper with no context: an ended
// query's round would still be answered from the cache.
func PeekAll(p *Pump, keys []string) { // want "takes no context.Context"
	p.PeekRound(nil, keys)
}

// A binding round's registrations behind a wrapper with no context: an
// ended query's misses would still be registered, and run.
func RegisterAll(p *Pump, keys []string) { // want "takes no context.Context"
	p.RequestRound(nil, keys)
}

// helper performs a pump call with no context of its own, so exported
// wrappers around it inherit the violation.
func helper(p *Pump) {
	_, _ = p.AwaitAnyCtx(nil)
}

func WrapsHelper(p *Pump) { // want "takes no context.Context"
	helper(p)
}

func StrayBackground() context.Context {
	return context.Background() // want "detaches this call"
}

// The tier's peer fetch detached from its caller (DESIGN.md §7, mutant
// ctxflow1): the timeout still bounds it, so every test passes, but a
// cancelled query no longer cancels the hop.
type Peers struct {
	client *http.Client
}

func (p *Peers) doFetch(ctx context.Context, url string) (*http.Response, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second) // want "detaches this call"
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return p.client.Do(req)
}

// An exported probe that reaches the network with no context at all
// (mutant ctxflow2); nothing calls it yet, so nothing tests it.
func (p *Peers) Ping(base string) bool { // want "takes no context.Context"
	resp, err := p.client.Get(base + "/healthz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// --- negatives --------------------------------------------------------

func BoundedRegister(ctx context.Context, p *Pump) int {
	return p.RegisterCtx(ctx, "google")
}

func NilDefault(ctx context.Context) context.Context {
	if ctx == nil {
		ctx = context.Background() // the idiomatic nil-context default
	}
	return ctx
}

func NotPumpCall(n *NotAPump) {
	n.RegisterCtx("altavista") // receiver is not async.Pump
}

func unexportedLeak(p *Pump) {
	_, _ = p.AwaitAnyCtx(nil) // only exported functions are checked here
}

func ClosureEscapes(p *Pump) func() {
	return func() {
		// Closures run under their eventual caller's scope; not checked
		// against the enclosing signature.
		_, _ = p.AwaitAnyCtx(nil)
	}
}
