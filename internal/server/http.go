package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"hcrowd/internal/dataset"
)

// AdmitTasksRequest is the POST /tasks payload of a streaming session:
// task fragments to admit, and optionally the final flag closing the
// admission stream ({"final": true} with no fragments just closes it).
type AdmitTasksRequest struct {
	Fragments []*dataset.Fragment `json:"fragments,omitempty"`
	Final     bool                `json:"final,omitempty"`
}

// sessionRoutes builds the per-session route set rooted at "/"; the
// manager mounts it under /v1/sessions/{id}/ (and hcserve also serves
// its default session at the root):
//
//	GET  /experts              -> {"experts": ["e0", "e1"]}
//	GET  /queries?worker=e0    -> {"round": 3, "facts": [12, 40]} or 204
//	POST /answers              <- {"round": 3, "worker": "e0", "values": [true, false]}
//	POST /tasks                <- AdmitTasksRequest (streaming sessions)
//	GET  /status               -> Status JSON
//	GET  /labels               -> {"labels": [...]} once done, 409 before
//	GET  /checkpoint           -> warm pipeline checkpoint JSON, 204 before
//	                              the first round completes
//	GET  /metrics              -> the session's metrics snapshot (JSON)
//
// All bodies are JSON. The routes are safe for concurrent clients, and
// every route is instrumented: request counts and latency per route,
// in-flight gauge, and panic recovery to a JSON 500. Requests with the
// wrong method get 405 Method Not Allowed (with an Allow header),
// counted like any other response. POST /answers returns 409 when the
// round is closed or the answer is otherwise rejected, 410 once the
// session has finished, 503 while the service drains. The checkpoint
// endpoint lets an operator persist the session's progress and later
// restart the job with it as pipeline.Config.From (in NewSession or a
// plain run) without re-asking the experts anything.
func sessionRoutes(s *Session, logger *log.Logger) http.Handler {
	rt := newRouter(s.Metrics().http, logger)
	h := &httpHandler{s: s, rt: rt}
	rt.handle("GET /experts", h.experts)
	rt.handle("GET /queries", h.queries)
	rt.handle("POST /answers", h.answers)
	rt.handle("POST /tasks", h.tasks)
	rt.handle("GET /status", h.status)
	rt.handle("GET /checkpoint", h.checkpoint)
	rt.handle("GET /labels", h.labels)
	metricsHandler := s.Metrics().Handler()
	rt.handle("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		metricsHandler.ServeHTTP(w, r)
	})
	return rt.handler()
}

// statusRecorder captures the response code for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.code = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

// router registers routes with per-path method dispatch and the
// standard middleware. A request whose path matches but whose method
// does not is answered 405 Method Not Allowed with an Allow header —
// and, unlike the stock ServeMux 405, the rejection goes through the
// middleware, so it is counted per route and in methodRejected. The
// session handler and the manager handler each own a router bound to
// their respective instrument bundle.
type router struct {
	ins    *httpInstruments
	logger *log.Logger
	mux    *http.ServeMux
	paths  map[string]*pathMethods
}

// pathMethods is one path's method table.
type pathMethods struct {
	rt      *router
	path    string
	methods map[string]http.HandlerFunc // instrumented handlers
	reject  http.HandlerFunc            // instrumented 405
}

func newRouter(ins *httpInstruments, logger *log.Logger) *router {
	return &router{
		ins:    ins,
		logger: logger,
		mux:    http.NewServeMux(),
		paths:  make(map[string]*pathMethods),
	}
}

func (rt *router) handler() http.Handler { return rt.mux }

func (rt *router) logf(format string, args ...any) {
	if rt.logger != nil {
		rt.logger.Printf(format, args...)
	}
}

// handle registers fn under a "METHOD /path" pattern; a pattern without
// a method ("/path" or "/tree/{rest...}") accepts every method (the
// handler does its own dispatch — e.g. the manager's per-session proxy,
// whose sub-routes enforce methods themselves). Registration is
// construction-time only and not safe for concurrent use.
func (rt *router) handle(pattern string, fn http.HandlerFunc) {
	method, path, ok := strings.Cut(pattern, " ")
	if !ok {
		rt.mux.HandleFunc(pattern, rt.instrument(pattern, fn))
		return
	}
	pm := rt.paths[path]
	if pm == nil {
		pm = &pathMethods{rt: rt, path: path, methods: make(map[string]http.HandlerFunc)}
		// The 405 path is a route of its own, labeled by the bare path so
		// rejected methods do not fan the route label out per method.
		pm.reject = rt.instrument(path, pm.methodNotAllowed)
		rt.paths[path] = pm
		rt.mux.HandleFunc(path, pm.dispatch)
	}
	if _, dup := pm.methods[method]; dup {
		panic("server: duplicate route " + pattern)
	}
	pm.methods[method] = rt.instrument(pattern, fn)
}

func (pm *pathMethods) dispatch(w http.ResponseWriter, r *http.Request) {
	if fn, ok := pm.methods[r.Method]; ok {
		fn(w, r)
		return
	}
	pm.reject(w, r)
}

// methodNotAllowed answers 405 with the path's allowed methods.
func (pm *pathMethods) methodNotAllowed(w http.ResponseWriter, r *http.Request) {
	pm.rt.ins.methodRejected.Inc()
	allowed := make([]string, 0, len(pm.methods))
	for m := range pm.methods {
		allowed = append(allowed, m)
	}
	sort.Strings(allowed)
	w.Header().Set("Allow", strings.Join(allowed, ", "))
	pm.rt.httpError(w, http.StatusMethodNotAllowed,
		"method "+r.Method+" not allowed on "+pm.path)
}

// instrument wraps fn with the standard middleware: in-flight gauge,
// per-route latency histogram, per-(route, code) request counter, and
// panic recovery to a JSON 500. label is the route string the counters
// carry; instrumentation is attached at registration time rather than
// by re-deriving the route per request.
func (rt *router) instrument(label string, fn http.HandlerFunc) http.HandlerFunc {
	latency := rt.ins.latency.With(label)
	return func(w http.ResponseWriter, r *http.Request) {
		rt.ins.inflight.Inc()
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				rt.ins.panics.Inc()
				rt.logf("server: panic in %s: %v\n%s", label, p, debug.Stack())
				if !rec.wrote {
					rt.writeJSON(rec, http.StatusInternalServerError,
						map[string]string{"error": "internal server error"})
				}
			}
			latency.Observe(time.Since(start).Seconds())
			rt.ins.requests.With(label, strconv.Itoa(rec.code)).Inc()
			rt.ins.inflight.Dec()
		}()
		fn(rec, r)
	}
}

// writeJSON writes v as the response body. An encode/write failure (a
// client that hung up mid-body, an unencodable value) cannot be reported
// to the client — the status line is already gone — so it is counted and
// logged instead of silently dropped.
func (rt *router) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		rt.ins.writeErrors.Inc()
		rt.logf("server: write response (status %d): %v", code, err)
	}
}

func (rt *router) httpError(w http.ResponseWriter, code int, msg string) {
	rt.writeJSON(w, code, map[string]string{"error": msg})
}

// Request-body caps, each far above the largest body a legitimate client
// sends on its route, refused with 413. A create may carry any checkpoint
// GET /checkpoint serves (2^m beliefs per task), as a journal image does.
const (
	maxAnswerBytes  = 1 << 20 // POST /answers: one expert's values for one round
	maxAdmitBytes   = 8 << 20 // POST /tasks: one batch of task fragments
	maxSessionBytes = 1 << 30 // POST /v1/sessions (a create) and /v1/cluster/accept (a journal image)
)

// decodeBody reads a request body of at most limit bytes and, when v is
// non-nil, decodes it as JSON into v, rejecting unknown fields. An
// oversized body is answered 413 (one whose declared length is past the
// cap before any of it is read), an unreadable or malformed one 400
// (what names the payload); ok reports whether the handler may go on.
func (rt *router) decodeBody(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) (body []byte, ok bool) {
	var err error
	if r.ContentLength > limit {
		err = &http.MaxBytesError{Limit: limit}
	} else {
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	}
	if err == nil && v != nil {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(v)
	}
	if err == nil {
		return body, true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	rt.httpError(w, code, "bad "+what+": "+err.Error())
	return nil, false
}

// httpHandler carries the session and its router through the route
// handlers.
type httpHandler struct {
	s  *Session
	rt *router
}

func (h *httpHandler) experts(w http.ResponseWriter, r *http.Request) {
	h.rt.writeJSON(w, http.StatusOK, map[string]any{"experts": h.s.Experts()})
}

func (h *httpHandler) queries(w http.ResponseWriter, r *http.Request) {
	worker := r.URL.Query().Get("worker")
	if worker == "" {
		h.rt.httpError(w, http.StatusBadRequest, "missing worker parameter")
		return
	}
	round, facts, ok := h.s.Queries(worker)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	h.rt.writeJSON(w, http.StatusOK, map[string]any{"round": round, "facts": facts})
}

func (h *httpHandler) answers(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Round  int    `json:"round"`
		Worker string `json:"worker"`
		Values []bool `json:"values"`
	}
	if _, ok := h.rt.decodeBody(w, r, maxAnswerBytes, "answer payload", &req); !ok {
		return
	}
	if err := h.s.Answer(req.Round, req.Worker, req.Values); err != nil {
		h.rt.httpError(w, refusalCode(err, http.StatusConflict), err.Error())
		return
	}
	w.WriteHeader(http.StatusAccepted)
}

// refusalCode maps an error refusing a request to its HTTP status: 410
// once the session has finished, 503 while the session or the manager
// drains, 409 for a taken session name, 422 for an invalid fragment, and
// fallback for anything else.
func refusalCode(err error, fallback int) int {
	switch {
	case errors.Is(err, ErrClosed):
		return http.StatusGone
	case errors.Is(err, ErrDraining), errors.Is(err, ErrManagerDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrDuplicateSession):
		return http.StatusConflict
	case errors.Is(err, ErrBadFragment):
		return http.StatusUnprocessableEntity
	}
	return fallback
}

// tasks admits a batch of task fragments into a streaming session (one
// created with a budget window). 202 acknowledges the batch is journaled
// and staged; 409 when the session is not streaming or the stream
// already ended; 422 when a fragment fails validation; 410 once the
// session has finished; 503 while draining.
func (h *httpHandler) tasks(w http.ResponseWriter, r *http.Request) {
	var req AdmitTasksRequest
	if _, ok := h.rt.decodeBody(w, r, maxAdmitBytes, "admit payload", &req); !ok {
		return
	}
	if err := h.s.AdmitTasks(req.Fragments, req.Final); err != nil {
		h.rt.httpError(w, refusalCode(err, http.StatusConflict), err.Error())
		return
	}
	h.rt.writeJSON(w, http.StatusAccepted,
		map[string]any{"accepted": len(req.Fragments), "final": req.Final})
}

func (h *httpHandler) status(w http.ResponseWriter, r *http.Request) {
	h.rt.writeJSON(w, http.StatusOK, h.s.Status())
}

func (h *httpHandler) checkpoint(w http.ResponseWriter, r *http.Request) {
	ck := h.s.Checkpoint()
	if ck == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	h.rt.writeJSON(w, http.StatusOK, ck)
}

func (h *httpHandler) labels(w http.ResponseWriter, r *http.Request) {
	st := h.s.Status()
	if !st.Done {
		h.rt.httpError(w, http.StatusConflict, "labeling still in progress")
		return
	}
	// Snapshot under the lock, encode after: writeJSON blocks on the
	// client connection, and holding s.mu across a slow client would
	// stall every other handler and the engine itself.
	h.s.mu.Lock()
	runErr := h.s.runErr
	var labels []bool
	if h.s.result != nil {
		labels = h.s.result.Labels
	}
	h.s.mu.Unlock()
	if runErr != nil {
		h.rt.httpError(w, http.StatusInternalServerError, runErr.Error())
		return
	}
	h.rt.writeJSON(w, http.StatusOK, map[string]any{"labels": labels})
}
