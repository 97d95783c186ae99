package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
)

// Client talks to a running wsqd server. It is safe for concurrent use and
// pools connections aggressively — a load generator drives many concurrent
// queries against the same host.
//
// It is the remote counterpart of core.DB's Exec: the wsq shell's -server
// mode builds on it.
type Client struct {
	baseURL string
	http    *http.Client
}

// ErrOverloaded is returned by Query when the server rejected the request
// at admission (HTTP 503): the execution slots and the wait queue were both
// full. Callers may retry after a backoff.
var ErrOverloaded = errors.New("wsqd: server overloaded")

// ErrDeadline is returned by Query when the server aborted the query at
// its deadline (HTTP 504).
var ErrDeadline = errors.New("wsqd: query deadline exceeded")

// NewClient builds a client for the wsqd server at baseURL
// (e.g. "http://127.0.0.1:8080").
func NewClient(baseURL string) *Client {
	tr := &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
		IdleConnTimeout:     60 * time.Second,
	}
	return &Client{
		baseURL: strings.TrimRight(baseURL, "/"),
		http:    &http.Client{Transport: tr},
	}
}

// Query executes one statement remotely. timeout bounds the server-side
// execution (0 = the server default); ctx bounds the whole HTTP exchange.
func (c *Client) Query(ctx context.Context, sql string, timeout time.Duration) (*QueryResponse, error) {
	req := QueryRequest{SQL: sql}
	if timeout > 0 {
		req.TimeoutMS = int(timeout / time.Millisecond)
	}
	return c.QueryOpts(ctx, req)
}

// QueryOpts executes a fully specified request remotely (per-query timeout
// and degradation policy included).
func (c *Client) QueryOpts(ctx context.Context, req QueryRequest) (*QueryResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL+"/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("wsqd: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return nil, fmt.Errorf("wsqd: read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp.StatusCode, raw)
	}
	out, err := decodeQueryResponse(raw)
	if err != nil {
		return nil, fmt.Errorf("wsqd: parse response: %w", err)
	}
	return out, nil
}

// maxResponseBytes caps the body the client reads.
const maxResponseBytes = 64 << 20

// statusError is what a non-200 answer means: ErrOverloaded for 503,
// ErrDeadline for 504, otherwise the ErrorResponse body's message.
func statusError(code int, body []byte) error {
	var er ErrorResponse
	_ = json.Unmarshal(body, &er)
	switch code {
	case http.StatusServiceUnavailable:
		return fmt.Errorf("%w: %s", ErrOverloaded, er.Error)
	case http.StatusGatewayTimeout:
		return fmt.Errorf("%w: %s", ErrDeadline, er.Error)
	default:
		if er.Error != "" {
			return fmt.Errorf("wsqd: %s", er.Error)
		}
		return fmt.Errorf("wsqd: HTTP %d", code)
	}
}

// Status fetches the server's /statusz snapshot.
func (c *Client) Status(ctx context.Context) (*Statusz, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+"/statusz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("wsqd: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return nil, fmt.Errorf("wsqd: read statusz: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp.StatusCode, raw)
	}
	var out Statusz
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("wsqd: parse statusz: %w", err)
	}
	return &out, nil
}

// Format renders a query response as core.Result.Format does, so the wsq
// shell looks identical in remote mode.
func (r *QueryResponse) Format() string {
	if len(r.Columns) == 0 {
		return fmt.Sprintf("ok (%d rows affected)\n", r.RowCount)
	}
	return core.FormatTable(r.Columns, r.Rows, formatValue)
}

// formatValue renders one JSON-decoded cell. Integers survive the float64
// round-trip unscathed for the magnitudes the engine produces.
func formatValue(v interface{}) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case float64:
		if x == float64(int64(x)) {
			return fmt.Sprintf("%d", int64(x))
		}
		return fmt.Sprintf("%.4g", x)
	case string:
		return x
	default:
		return fmt.Sprintf("%v", x)
	}
}
