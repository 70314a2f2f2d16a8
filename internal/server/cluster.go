package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"time"

	"hcrowd/internal/cluster"
)

// maxHandoffBytes caps an accepted journal image. Journals compact to
// their newest checkpoint every CompactEvery rounds, so a legitimate
// image is far below this; anything larger is a confused or malicious
// peer, refused before it can balloon memory.
const maxHandoffBytes = 1 << 30

// defaultHandoffTimeout bounds the source->target push of one journal
// image when ClusterOptions.HTTPClient is nil.
const defaultHandoffTimeout = 30 * time.Second

// ClusterOptions configures a replica's routing layer.
type ClusterOptions struct {
	// Self is this replica's advertised address exactly as it appears in
	// Peers (e.g. "127.0.0.1:8081").
	Self string
	// Peers is the full static membership, Self included. Every replica
	// must be started with the same set (order is irrelevant — the ring
	// is order-independent).
	Peers []string
	// VNodes is the consistent-hash ring's virtual-node count per member
	// (0 = cluster.DefaultVNodes).
	VNodes int
	// Proxy switches misrouted session requests from 307 redirects to a
	// thin reverse proxy, for redirect-blind clients. Redirects stay the
	// default: they keep session traffic flowing replica-to-client
	// rather than replica-to-replica.
	Proxy bool
	// Logger receives routing and handoff lifecycle lines; nil silences
	// them.
	Logger *log.Logger
	// HTTPClient pushes handoff journal images to their target replica;
	// nil uses a client with a 30 s timeout.
	HTTPClient *http.Client
}

// Cluster is the replica-mode routing layer in front of a Manager: it
// owns a consistent-hash ring over the static membership and serves
//
//	GET  /v1/cluster               ring membership and routing mode
//	POST /v1/cluster/handoff/{id}  quiesce a local session, stream its
//	                               journal to a peer, retire the copy
//	POST /v1/cluster/accept/{id}   land a handed-off journal, recover it
//
// plus every route the wrapped Manager serves. Requests addressing
// /v1/sessions are routed by session ID: sessions present locally are
// served locally (presence wins over the ring, so a session accepted
// via handoff keeps working even though the ring still names its old
// owner); absent sessions owned elsewhere get a 307 to the owner (or a
// transparent proxy hop in Proxy mode) with an X-HC-Owner header either
// way. POST /v1/sessions peeks the payload's name to route creations;
// unnamed creations are served locally. GET /v1/sessions lists only
// this replica's sessions — membership is static, so clients aggregate
// across /v1/cluster's member list.
type Cluster struct {
	m       *Manager
	ring    *cluster.Ring
	self    string
	proxy   bool
	logger  *log.Logger
	push    transport           // source->target journal pushes
	targets map[string]*url.URL // member -> base URL for the proxy
	rproxy  *httputil.ReverseProxy
	inner   http.Handler
	ctl     http.Handler // the instrumented /v1/cluster* router
	rt      *router
}

// ownerKey carries the proxy hop's target URL through the request
// context to the shared ReverseProxy's Rewrite.
type ownerKey struct{}

// NewCluster wraps the manager's handler with the replica routing
// layer. The manager must have a JournalDir: journal images are the
// only currency handoff deals in.
func NewCluster(m *Manager, opts ClusterOptions) (*Cluster, error) {
	if m.opts.JournalDir == "" {
		return nil, errors.New("server: cluster: manager has no JournalDir (handoff needs journals)")
	}
	ring, err := cluster.New(opts.Peers, opts.VNodes)
	if err != nil {
		return nil, err
	}
	if !ring.Has(opts.Self) {
		return nil, fmt.Errorf("server: cluster: self %q is not a member of %v", opts.Self, ring.Members())
	}
	c := &Cluster{
		m:      m,
		ring:   ring,
		self:   opts.Self,
		proxy:  opts.Proxy,
		logger: opts.Logger,
		push:   transport{HTTPClient: opts.HTTPClient, Timeout: defaultHandoffTimeout},
		inner:  m.Handler(),
	}
	c.targets = make(map[string]*url.URL, len(ring.Members()))
	for _, member := range ring.Members() {
		u, err := url.Parse(memberURL(member))
		if err != nil {
			return nil, fmt.Errorf("server: cluster: member %q: %w", member, err)
		}
		c.targets[member] = u
	}
	c.rproxy = &httputil.ReverseProxy{
		Rewrite: func(pr *httputil.ProxyRequest) {
			pr.SetURL(pr.In.Context().Value(ownerKey{}).(*url.URL))
			pr.Out.URL.Path = pr.In.URL.Path // SetURL joins base paths; members have none
			pr.SetXForwarded()
		},
		ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
			c.logf("cluster: proxy %s %s: %v", r.Method, r.URL.Path, err)
			c.rt.httpError(w, http.StatusBadGateway, "owner replica unreachable: "+err.Error())
		},
	}
	rt := newRouter(m.metrics.http, opts.Logger)
	rt.handle("GET /v1/cluster", c.info)
	rt.handle("POST /v1/cluster/handoff/{id}", c.handoff)
	rt.handle("POST /v1/cluster/accept/{id}", c.accept)
	c.rt = rt
	c.ctl = rt.handler()
	return c, nil
}

// memberURL resolves a membership address to a base URL.
func memberURL(member string) string {
	if strings.Contains(member, "://") {
		return strings.TrimSuffix(member, "/")
	}
	return "http://" + member
}

func (c *Cluster) logf(format string, args ...any) {
	if c.logger != nil {
		c.logger.Printf(format, args...)
	}
}

// Self returns this replica's advertised address.
func (c *Cluster) Self() string { return c.self }

// Ring returns the replica's routing ring.
func (c *Cluster) Ring() *cluster.Ring { return c.ring }

// Handler returns the replica's full HTTP surface: the cluster control
// routes, the session routing layer, and everything the wrapped
// manager serves.
func (c *Cluster) Handler() http.Handler { return http.HandlerFunc(c.route) }

// route is the replica's dispatch: cluster control routes first, then
// session-ID routing, then the manager's remaining surface (metrics,
// lists) served locally.
func (c *Cluster) route(w http.ResponseWriter, r *http.Request) {
	p := r.URL.Path
	switch {
	case p == "/v1/cluster" || strings.HasPrefix(p, "/v1/cluster/"):
		c.ctl.ServeHTTP(w, r)
	case p == "/v1/sessions" || p == "/v1/sessions/":
		if r.Method == http.MethodPost {
			c.routeCreate(w, r)
			return
		}
		c.inner.ServeHTTP(w, r)
	case strings.HasPrefix(p, "/v1/sessions/"):
		id := strings.TrimPrefix(p, "/v1/sessions/")
		if i := strings.IndexByte(id, '/'); i >= 0 {
			id = id[:i]
		}
		if unescaped, err := url.PathUnescape(id); err == nil {
			id = unescaped
		}
		c.routeSession(w, r, id)
	default:
		c.inner.ServeHTTP(w, r)
	}
}

// routeSession serves a request addressed to one session: locally when
// the session lives here (presence beats the ring — handed-off and
// recovered sessions are reachable wherever they actually run), locally
// when the ring says this replica owns the — possibly not yet created —
// ID, and forwarded to the ring owner otherwise.
func (c *Cluster) routeSession(w http.ResponseWriter, r *http.Request, id string) {
	if _, ok := c.m.Get(id); ok {
		w.Header().Set("X-HC-Owner", c.self)
		c.inner.ServeHTTP(w, r)
		return
	}
	owner := c.ring.Owner(id)
	if owner == c.self {
		w.Header().Set("X-HC-Owner", c.self)
		c.inner.ServeHTTP(w, r) // this replica's 404 is authoritative
		return
	}
	c.forward(w, r, owner)
}

// routeCreate routes POST /v1/sessions by the payload's session name:
// named sessions are created on their ring owner (a 307 makes the
// client re-send the payload there; the proxy mode forwards it), while
// unnamed sessions — the manager generates an ID — are created locally.
func (c *Cluster) routeCreate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		c.rt.httpError(w, http.StatusBadRequest, "read create payload: "+err.Error())
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	r.ContentLength = int64(len(body))
	var peek struct {
		Name string `json:"name"`
	}
	// A payload that does not parse is the manager's 400 to give.
	if json.Unmarshal(body, &peek) != nil || peek.Name == "" {
		c.inner.ServeHTTP(w, r)
		return
	}
	if _, exists := c.m.Get(peek.Name); exists {
		// Serve the duplicate-name 409 locally rather than bouncing it.
		c.inner.ServeHTTP(w, r)
		return
	}
	if owner := c.ring.Owner(peek.Name); owner != c.self {
		c.forward(w, r, owner)
		return
	}
	w.Header().Set("X-HC-Owner", c.self)
	c.inner.ServeHTTP(w, r)
}

// forward sends a misrouted request to its owning replica: a 307
// Temporary Redirect (method- and body-preserving) by default, a
// reverse-proxy hop in Proxy mode. Either way X-HC-Owner names the
// owner so clients and operators can see the routing decision.
func (c *Cluster) forward(w http.ResponseWriter, r *http.Request, owner string) {
	w.Header().Set("X-HC-Owner", owner)
	if c.proxy {
		c.m.metrics.clusterProxied.Inc()
		ctx := context.WithValue(r.Context(), ownerKey{}, c.targets[owner])
		c.rproxy.ServeHTTP(w, r.WithContext(ctx))
		return
	}
	c.m.metrics.clusterRedirects.Inc()
	http.Redirect(w, r, memberURL(owner)+r.URL.RequestURI(), http.StatusTemporaryRedirect)
}

// info answers GET /v1/cluster with the replica's membership view.
func (c *Cluster) info(w http.ResponseWriter, r *http.Request) {
	c.rt.writeJSON(w, http.StatusOK, map[string]any{
		"self":    c.self,
		"members": c.ring.Members(),
		"vnodes":  c.ring.VNodes(),
		"proxy":   c.proxy,
	})
}

// handoff answers POST /v1/cluster/handoff/{id}: quiesce the local
// session, push its journal image to the target replica (?target=
// overrides the default — the session's ring owner), and retire the
// local copy once the target acks. A failed push leaves the session
// quiesced but intact (pinned against eviction, journal durable), so
// the operator retries the handoff or restarts the replica to resume
// it locally.
func (c *Cluster) handoff(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	target := r.URL.Query().Get("target")
	if target == "" {
		target = c.ring.Owner(id)
	}
	if !c.ring.Has(target) {
		c.rt.httpError(w, http.StatusBadRequest, fmt.Sprintf("target %q is not a cluster member", target))
		return
	}
	if target == c.self {
		c.rt.httpError(w, http.StatusConflict, fmt.Sprintf("session %q already belongs here", id))
		return
	}
	data, err := c.m.Handoff(r.Context(), id)
	if err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrUnknownSession):
			code = http.StatusNotFound
		case errors.Is(err, ErrNotJournaled):
			code = http.StatusConflict
		}
		c.rt.httpError(w, code, err.Error())
		return
	}
	if err := c.pushHandoff(r.Context(), target, id, data); err != nil {
		c.logf("cluster: handoff %s -> %s failed (journal retained locally): %v", id, target, err)
		c.rt.httpError(w, http.StatusBadGateway, fmt.Sprintf("handoff %s to %s: %v", id, target, err))
		return
	}
	if err := c.m.Retire(id); err != nil {
		// The target owns a running copy now; a local remnant that a
		// restart would resurrect is a split brain in the making, so the
		// failure is loud.
		c.rt.httpError(w, http.StatusInternalServerError, fmt.Sprintf("handoff %s: retire local copy: %v", id, err))
		return
	}
	c.m.metrics.clusterHandoffs.Inc()
	c.logf("cluster: session %s handed off to %s (%d bytes)", id, target, len(data))
	c.rt.writeJSON(w, http.StatusOK, map[string]any{"id": id, "target": target, "bytes": len(data)})
}

// pushHandoff POSTs a journal image to the target's accept endpoint and
// treats anything but 200 as a refusal.
func (c *Cluster) pushHandoff(ctx context.Context, target, id string, data []byte) error {
	u := memberURL(target) + "/v1/cluster/accept/" + url.PathEscape(id)
	_, err := c.push.do(ctx, http.MethodPost, u, data, nil, http.StatusOK)
	return err
}

// accept answers POST /v1/cluster/accept/{id}: the body is a complete
// journal image; landing it durably and recovering the session is the
// ack the source's retire step depends on.
func (c *Cluster) accept(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxHandoffBytes))
	if err != nil {
		c.rt.httpError(w, http.StatusBadRequest, "read journal image: "+err.Error())
		return
	}
	if err := c.m.AcceptHandoff(id, data); err != nil {
		code := http.StatusUnprocessableEntity
		switch {
		case errors.Is(err, ErrDuplicateSession):
			code = http.StatusConflict
		case errors.Is(err, ErrManagerDraining):
			code = http.StatusServiceUnavailable
		}
		c.rt.httpError(w, code, err.Error())
		return
	}
	c.m.metrics.clusterAccepts.Inc()
	c.logf("cluster: session %s accepted from peer (%d bytes)", id, len(data))
	c.rt.writeJSON(w, http.StatusOK, map[string]any{"id": id, "recovered": true})
}
