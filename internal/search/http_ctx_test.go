package search

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// The Client binds every request to its context; these tests pin the
// cancellation plumbing that replaced the old context-free Get path
// (where an abandoned request lingered until the transport's 60s cap).

func TestClientCtxCancelAbortsInflightRequest(t *testing.T) {
	inHandler := make(chan struct{})
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(inHandler)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release)

	c := NewClient("slow", srv.URL)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Count(ctx, "x")
		done <- err
	}()
	<-inHandler
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("canceled request should error")
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("want context.Canceled in chain, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not abort the in-flight request")
	}
}

// TestClientCtxDeadline: a request ends with its caller's deadline. The
// call runs on its own goroutine against a 2 s timer, so a client that
// drops the caller's context fails here by name in seconds rather than
// at the transport's 60 s cap; the server's connections are then cut so
// that its handler, and the test, can end.
func TestClientCtxDeadline(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer srv.Close()
	c := NewClient("slow", srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.Search(ctx, "x", 1)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("want DeadlineExceeded, got %v", err)
		}
	case <-time.After(2 * time.Second):
		srv.CloseClientConnections()
		<-done
		t.Fatal("the request outlived its caller's 10 ms deadline by 2 s")
	}
}

// Bound adapts the client to the synchronous Engine interface: a nil Ctx
// leaves requests unbounded, a canceled Ctx refuses them.
func TestBoundEngine(t *testing.T) {
	srv := httptest.NewServer(NewHandler(&memEngine{name: "m"}))
	defer srv.Close()
	cl := NewClient("m", srv.URL)

	var e Engine = Bind(nil, cl)
	if n, err := e.Count("abcd"); err != nil || n != 4 {
		t.Fatalf("nil-ctx Bound count: %d %v", n, err)
	}
	if e.Name() != "m" {
		t.Errorf("Name() = %q", e.Name())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dead := Bind(ctx, cl)
	if _, err := dead.Count("abcd"); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled Bound should refuse, got %v", err)
	}
	if _, err := dead.Search("utah", 1); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled Bound search should refuse, got %v", err)
	}
	if _, err := dead.Fetch("www.x.com/1"); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled Bound fetch should refuse, got %v", err)
	}
}
