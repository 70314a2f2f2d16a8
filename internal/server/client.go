package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"time"

	"hcrowd/internal/dataset"
	"hcrowd/internal/pipeline"
)

// defaultClientTimeout bounds each request when the caller configures
// neither an HTTPClient nor a Timeout.
const defaultClientTimeout = 10 * time.Second

// resolveTimeout maps the Timeout knob to a per-request deadline: zero
// means the default, negative disables the whole-request timeout (the
// per-call context is then the only deadline).
func resolveTimeout(d time.Duration) time.Duration {
	switch {
	case d == 0:
		return defaultClientTimeout
	case d < 0:
		return 0
	default:
		return d
	}
}

// StatusError reports a non-success HTTP status from the labeling
// service, keeping the code inspectable so callers can tell benign
// races (409: the round moved on; 410: the session finished) from real
// failures.
type StatusError struct {
	Path string
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server: %s returned %d: %s", e.Path, e.Code, e.Msg)
}

// transport issues the HTTP requests of both clients.
type transport struct {
	// HTTPClient, when non-nil, is used as-is for every request (and
	// Timeout is ignored — configure the client's own Timeout instead).
	HTTPClient *http.Client
	// Timeout bounds each whole request, body included, when HTTPClient
	// is nil: 0 means the 10 s default, negative disables the timeout so
	// only the per-call context deadline applies (long-poll friendly).
	// It is read per request, so it may be changed between requests.
	Timeout time.Duration
}

// do sends one request and returns the response status. body is nil,
// a []byte sent as-is, or a value sent as JSON. A status outside want
// becomes a *StatusError carrying up to 512 bytes of the response body;
// on a wanted status other than 204 No Content, decode (when non-nil)
// reads the body.
func (t transport) do(ctx context.Context, method, u string, body any, decode func(io.Reader) error, want ...int) (int, error) {
	var rd io.Reader
	ctype := "application/json"
	switch b := body.(type) {
	case nil:
	case []byte:
		rd, ctype = bytes.NewReader(b), "application/octet-stream"
	default:
		buf, err := json.Marshal(b)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(buf)
	}
	hc := t.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
		if d := resolveTimeout(t.Timeout); d > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return 0, err
	}
	if rd != nil {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if !slices.Contains(want, resp.StatusCode) {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, &StatusError{Path: u, Code: resp.StatusCode, Msg: string(msg)}
	}
	if decode != nil && resp.StatusCode != http.StatusNoContent {
		if err := decode(resp.Body); err != nil {
			return resp.StatusCode, fmt.Errorf("server: decode %s: %w", u, err)
		}
	}
	return resp.StatusCode, nil
}

// jsonInto is the decode callback that unmarshals the body into v.
func jsonInto(v any) func(io.Reader) error {
	return func(r io.Reader) error { return json.NewDecoder(r).Decode(v) }
}

// Client is the Go consumer of the hcserve HTTP API. Expert-side tools
// (or bridges to real crowdsourcing platforms) use it to poll for
// checking queries and post answers. Its HTTPClient and Timeout fields
// configure each request: HTTPClient, when set, is used as-is; otherwise
// Timeout bounds each request (0 means 10 s, negative disables it).
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	transport

	// Retry policy for transient transport errors inside AnswerLoop:
	// consecutive failures back off exponentially from RetryBaseDelay
	// (default 100 ms) capped at RetryMaxDelay (default 5 s), with ±25%
	// jitter; after MaxRetries consecutive failures (default 8) the loop
	// gives up and returns the last error. Any success resets the count.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	MaxRetries     int
}

// NewClient returns a client for the given server root with the default
// request timeout (tune via the Timeout field).
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL}
}

// Experts lists the worker IDs the session accepts answers from.
func (c *Client) Experts(ctx context.Context) ([]string, error) {
	var out struct {
		Experts []string `json:"experts"`
	}
	if _, err := c.do(ctx, http.MethodGet, c.BaseURL+"/experts", nil, jsonInto(&out), http.StatusOK); err != nil {
		return nil, err
	}
	return out.Experts, nil
}

// Query is one open checking round from the expert's point of view.
type Query struct {
	Round int   `json:"round"`
	Facts []int `json:"facts"`
}

// Queries fetches the open round for the worker; ok is false when there
// is nothing to answer right now.
func (c *Client) Queries(ctx context.Context, workerID string) (Query, bool, error) {
	var q Query
	code, err := c.do(ctx, http.MethodGet, c.BaseURL+"/queries?worker="+url.QueryEscape(workerID), nil,
		jsonInto(&q), http.StatusOK, http.StatusNoContent)
	if err != nil || code == http.StatusNoContent {
		return Query{}, false, err
	}
	return q, true, nil
}

// Answer posts one worker's answers for a round.
func (c *Client) Answer(ctx context.Context, round int, workerID string, values []bool) error {
	body := map[string]any{"round": round, "worker": workerID, "values": values}
	_, err := c.do(ctx, http.MethodPost, c.BaseURL+"/answers", body, nil, http.StatusAccepted)
	return err
}

// AdmitTasks posts a batch of task fragments into a streaming session
// (one created with a budget window); final closes the admission stream.
// AdmitTasks(ctx, nil, true) just closes it.
func (c *Client) AdmitTasks(ctx context.Context, frs []*dataset.Fragment, final bool) error {
	body := AdmitTasksRequest{Fragments: frs, Final: final}
	_, err := c.do(ctx, http.MethodPost, c.BaseURL+"/tasks", body, nil, http.StatusAccepted)
	return err
}

// Status fetches the session's progress.
func (c *Client) Status(ctx context.Context) (Status, error) {
	var st Status
	if _, err := c.do(ctx, http.MethodGet, c.BaseURL+"/status", nil, jsonInto(&st), http.StatusOK); err != nil {
		return Status{}, err
	}
	return st, nil
}

// Checkpoint fetches the session's latest warm checkpoint; ok is false
// before the first round completes. The returned checkpoint feeds
// pipeline.Config.From (in a plain run or NewSession) or a create
// payload's checkpoint field for a warm restart.
func (c *Client) Checkpoint(ctx context.Context) (*pipeline.Checkpoint, bool, error) {
	var ck *pipeline.Checkpoint
	_, err := c.do(ctx, http.MethodGet, c.BaseURL+"/checkpoint", nil, func(r io.Reader) (err error) {
		ck, err = pipeline.ReadCheckpoint(r)
		return err
	}, http.StatusOK, http.StatusNoContent)
	if err != nil {
		return nil, false, err
	}
	return ck, ck != nil, nil
}

// Labels fetches the final labels; while labeling is still in progress
// it returns a *StatusError with Code 409.
func (c *Client) Labels(ctx context.Context) ([]bool, error) {
	var out struct {
		Labels []bool `json:"labels"`
	}
	if _, err := c.do(ctx, http.MethodGet, c.BaseURL+"/labels", nil, jsonInto(&out), http.StatusOK); err != nil {
		return nil, err
	}
	return out.Labels, nil
}

// retryPolicy resolves the client's backoff knobs to their defaults.
func (c *Client) retryPolicy() (base, max time.Duration, retries int) {
	base, max, retries = c.RetryBaseDelay, c.RetryMaxDelay, c.MaxRetries
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	if retries <= 0 {
		retries = 8
	}
	return base, max, retries
}

// backoffDelay is the capped exponential delay for the nth consecutive
// failure (n >= 1), with ±25% jitter so a fleet of experts does not
// hammer a recovering server in lockstep. The jitter source is an
// explicit *rand.Rand owned by the retry loop — never the process
// global, which the rand-hygiene lint bans so that simulation code can
// rely on seed-determinism.
func backoffDelay(jitter *rand.Rand, base, max time.Duration, n int) time.Duration {
	d := base << uint(n-1)
	if d > max || d <= 0 { // <= 0 guards shift overflow
		d = max
	}
	jittered := time.Duration(float64(d) * (0.75 + 0.5*jitter.Float64()))
	if jittered <= 0 {
		jittered = d
	}
	return jittered
}

// AnswerLoop polls for queries addressed to workerID and answers them
// with the supplied function until the session completes or ctx is
// cancelled. It is the building block for expert-side clients.
//
// The loop is resilient to the protocol's benign races and to transient
// transport failures: a 409 on POST /answers means the round completed
// (full panel or timeout) between Queries and Answer — the answer is
// simply stale, so the loop re-polls for the next round; a 410 means the
// session finished, which the next Status call confirms; a 503 means the
// service is draining, so the loop keeps polling until the session
// reports Done (the drain closes it within the drain timeout). Transport
// errors (dropped connections, a restarting server) retry with capped
// exponential backoff and jitter per the client's retry policy; only
// after MaxRetries consecutive failures — or on a non-benign HTTP status
// — does the loop give up.
func (c *Client) AnswerLoop(ctx context.Context, workerID string, answer func(facts []int) []bool, poll time.Duration) error {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	base, max, retries := c.retryPolicy()
	// Each loop owns its jitter stream: time-seeded (this is the live
	// network path, not a simulation) so concurrent expert loops
	// desynchronize, and explicit so no labeling code path ever touches
	// the process-global RNG.
	jitter := rand.New(rand.NewSource(time.Now().UnixNano()))
	failures := 0
	// fail classifies an error: benign races clear, transport errors
	// back off until the retry budget runs out, HTTP errors are fatal.
	// The second return is the error to stop with, nil to keep looping.
	fail := func(err error) (stop bool, ret error) {
		var se *StatusError
		if errors.As(err, &se) {
			if se.Code == http.StatusConflict || se.Code == http.StatusGone ||
				se.Code == http.StatusServiceUnavailable {
				// The round moved on, the session just finished, or the
				// service began draining; the next Status/Queries poll
				// resynchronizes (a draining session reports Done shortly).
				failures = 0
				return false, nil
			}
			return true, err // a real protocol error; retrying won't help
		}
		if ctx.Err() != nil {
			return true, ctx.Err()
		}
		failures++
		if failures > retries {
			return true, fmt.Errorf("server: giving up after %d consecutive failures: %w", failures, err)
		}
		select {
		case <-ctx.Done():
			return true, ctx.Err()
		case <-time.After(backoffDelay(jitter, base, max, failures)):
		}
		return false, nil
	}
	for {
		st, err := c.Status(ctx)
		if err != nil {
			if stop, ret := fail(err); stop {
				return ret
			}
			continue
		}
		failures = 0
		if st.Done {
			return nil
		}
		q, ok, err := c.Queries(ctx, workerID)
		if err != nil {
			if stop, ret := fail(err); stop {
				return ret
			}
			continue
		}
		if ok {
			if err := c.Answer(ctx, q.Round, workerID, answer(q.Facts)); err != nil {
				if stop, ret := fail(err); stop {
					return ret
				}
			}
			continue
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(poll):
		}
	}
}

// ManagerClient is the Go consumer of the manager's /v1 session API:
// create, list, inspect and cancel sessions, and mint session-scoped
// expert clients. HTTPClient and Timeout configure each request as on
// Client.
type ManagerClient struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	transport
}

// NewManagerClient returns a manager client for the given service root
// with the default request timeout (tune via the Timeout field).
func NewManagerClient(baseURL string) *ManagerClient {
	return &ManagerClient{BaseURL: strings.TrimSuffix(baseURL, "/")}
}

// Create starts a new session from the payload and returns its info row
// (including the generated ID when req.Name was empty).
func (c *ManagerClient) Create(ctx context.Context, req CreateSessionRequest) (SessionInfo, error) {
	var info SessionInfo
	_, err := c.do(ctx, http.MethodPost, c.BaseURL+"/v1/sessions", req, jsonInto(&info), http.StatusCreated)
	return info, err
}

// List returns every registered session in creation order.
func (c *ManagerClient) List(ctx context.Context) ([]SessionInfo, error) {
	var out struct {
		Sessions []SessionInfo `json:"sessions"`
	}
	_, err := c.do(ctx, http.MethodGet, c.BaseURL+"/v1/sessions", nil, jsonInto(&out), http.StatusOK)
	return out.Sessions, err
}

// Info returns one session's info row.
func (c *ManagerClient) Info(ctx context.Context, id string) (SessionInfo, error) {
	var info SessionInfo
	_, err := c.do(ctx, http.MethodGet, c.sessionURL(id), nil, jsonInto(&info), http.StatusOK)
	return info, err
}

// Cancel stops a session's run.
func (c *ManagerClient) Cancel(ctx context.Context, id string) error {
	_, err := c.do(ctx, http.MethodDelete, c.sessionURL(id), nil, nil, http.StatusNoContent)
	return err
}

// Session returns an expert-side client scoped to one session, rooted at
// /v1/sessions/{id} and sharing this client's HTTPClient and Timeout.
func (c *ManagerClient) Session(id string) *Client {
	return &Client{BaseURL: c.sessionURL(id), transport: c.transport}
}

func (c *ManagerClient) sessionURL(id string) string {
	return c.BaseURL + "/v1/sessions/" + url.PathEscape(id)
}
