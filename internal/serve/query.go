package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro"
	"repro/internal/chaos"
	"repro/internal/query"
)

// maxQueryBytes bounds a /v1/query spec body. Real specs are a few hundred
// bytes; anything larger is rejected with 413 before parsing.
const maxQueryBytes = 64 << 10

// queryErrorDTO is the structured error envelope every /v1/query failure
// returns, so clients can branch on status without scraping prose.
type queryErrorDTO struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// writeQueryError emits the JSON error envelope with the given status.
func writeQueryError(w http.ResponseWriter, status int, msg string) {
	body, err := marshalJSON(queryErrorDTO{Error: msg, Status: status})
	if err != nil {
		http.Error(w, msg, status)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// runQuery executes one parsed query against the study: single-process
// through the engine, or — in cluster mode — scatter-gathered across the
// shard federation. Placement is lazy and idempotent, keyed by the study
// key's canonical string (the same identity the exhibit cache uses), so
// the first federated query of a study splits and places its frames and
// every later one reuses the placement. The two paths are byte-identical
// by the federation contract; cluster mode adds replica failover and the
// whpcd_shard_* telemetry.
func (s *Server) runQuery(ctx context.Context, key StudyKey, st *repro.Study, q *query.Query) (*query.Result, error) {
	if s.cluster == nil {
		return st.Query(q)
	}
	study := key.String()
	if err := s.cluster.Place(study, st.Frames()); err != nil {
		return nil, err
	}
	return s.cluster.Query(ctx, study, q)
}

// handleQuery serves POST /v1/query: an ad-hoc columnar query against the
// request's study. The spec arrives as JSON (see query.Parse); results are
// memoized through the exhibit cache keyed by the canonicalized spec hash,
// so semantically identical specs — whatever their field order or
// spelling — share one execution. Validation failures return 400, queries
// that match no rows 422, both as structured JSON; errors are never
// cached.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	key, err := s.parseStudyKey(r)
	if err != nil {
		writeQueryError(w, http.StatusBadRequest, err.Error())
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxQueryBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeQueryError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("query spec exceeds %d bytes", maxQueryBytes))
			return
		}
		writeQueryError(w, http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
		return
	}
	q, err := query.Parse(body)
	if err != nil {
		writeQueryError(w, http.StatusBadRequest, err.Error())
		return
	}
	st, err := s.studies.Get(r.Context(), key)
	if err != nil {
		writeQueryError(w, errorStatus(err),
			fmt.Sprintf("materializing study (%s): %v", key, err))
		return
	}

	// The content type is a pure function of the requested format, so a
	// cache hit can set it without re-running the query.
	contentType := "application/json"
	if q.Format == query.FormatCSV {
		contentType = "text/csv; charset=utf-8"
	}
	cacheKey := "query|" + q.Hash() + "|" + cacheID(key, st)
	out, outcome, err := s.cache.Get(r.Context(), cacheKey, func(ctx context.Context) ([]byte, error) {
		if injected, ferr := s.renderFault(ctx, chaos.PointRender); injected {
			return nil, ferr
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		start := s.clock.Now()
		defer func() { s.met.renders.ObserveDuration(s.clock.Now().Sub(start)) }()
		res, err := s.runQuery(ctx, key, st, q)
		if err != nil {
			return nil, err
		}
		b, _, err := res.Encode(q.Format)
		return b, err
	})
	if err != nil {
		switch {
		case errors.Is(err, query.ErrInvalid):
			writeQueryError(w, http.StatusBadRequest, err.Error())
		case errors.Is(err, query.ErrEmpty), errors.Is(err, query.ErrTooExpensive):
			writeQueryError(w, http.StatusUnprocessableEntity, err.Error())
		default:
			writeQueryError(w, errorStatus(err), err.Error())
		}
		return
	}
	s.met.queries.With(q.Frame).Inc()
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("Content-Length", strconv.Itoa(len(out)))
	h.Set("X-Cache", outcome)
	if outcome == CacheStale {
		h.Set("Warning", `110 whpcd "stale: re-render failed; bytes are from an earlier identical render"`)
	}
	_, _ = w.Write(out)
}

// trendRequestDTO selects which longitudinal view POST /v1/trend serves.
type trendRequestDTO struct {
	// View is "far" (year-over-year female author ratio trajectories, the
	// default) or "retention" (cohort retention of role-holders across
	// editions).
	View string `json:"view"`
}

// trendViews maps each /v1/trend view to the exhibit query that serves it.
// Both queries are verified byte-for-byte against their report CSV
// families, so the route inherits the reproduction's correctness anchor.
var trendViews = map[string]string{
	"far":       "trend",
	"retention": "retention",
}

// handleTrend serves POST /v1/trend: the year-over-year trend workload as
// CSV. The body is an optional JSON {"view": "far"|"retention"}; an empty
// body serves the FAR view. Execution goes through runQuery, so in cluster
// mode the trend scatter-gathers across the shard federation (delta-grown
// frames are re-sliced on PartitionRows boundaries at placement time) and
// is byte-identical to the single-process path. Results memoize through
// the exhibit cache keyed by view and the revision-qualified study
// identity, so applying a delta invalidates exactly the trend renders
// whose inputs changed.
func (s *Server) handleTrend(w http.ResponseWriter, r *http.Request) {
	key, err := s.parseStudyKey(r)
	if err != nil {
		writeQueryError(w, http.StatusBadRequest, err.Error())
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxQueryBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeQueryError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("trend request exceeds %d bytes", maxQueryBytes))
			return
		}
		writeQueryError(w, http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
		return
	}
	view := "far"
	if len(bytes.TrimSpace(body)) > 0 {
		var req trendRequestDTO
		if err := json.Unmarshal(body, &req); err != nil {
			writeQueryError(w, http.StatusBadRequest, fmt.Sprintf("parsing trend request: %v", err))
			return
		}
		if req.View != "" {
			view = req.View
		}
	}
	name, ok := trendViews[view]
	if !ok {
		writeQueryError(w, http.StatusBadRequest,
			fmt.Sprintf("unknown trend view %q (have [far retention])", view))
		return
	}
	eq, ok := repro.ExhibitQueryByName(name)
	if !ok {
		writeQueryError(w, http.StatusInternalServerError,
			fmt.Sprintf("exhibit query %q is not registered", name))
		return
	}
	st, err := s.studies.Get(r.Context(), key)
	if err != nil {
		writeQueryError(w, errorStatus(err),
			fmt.Sprintf("materializing study (%s): %v", key, err))
		return
	}

	cacheKey := "trend|" + view + "|" + cacheID(key, st)
	out, outcome, err := s.cache.Get(r.Context(), cacheKey, func(ctx context.Context) ([]byte, error) {
		if injected, ferr := s.renderFault(ctx, chaos.PointRender); injected {
			return nil, ferr
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		start := s.clock.Now()
		defer func() { s.met.renders.ObserveDuration(s.clock.Now().Sub(start)) }()
		res, err := s.runQuery(ctx, key, st, eq.Query)
		if err != nil {
			return nil, err
		}
		return res.CSV()
	})
	if err != nil {
		writeQueryError(w, errorStatus(err), err.Error())
		return
	}
	s.met.queries.With(eq.Query.Frame).Inc()
	h := w.Header()
	h.Set("Content-Type", "text/csv; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(out)))
	h.Set("X-Cache", outcome)
	if outcome == CacheStale {
		h.Set("Warning", `110 whpcd "stale: re-render failed; bytes are from an earlier identical render"`)
	}
	_, _ = w.Write(out)
}

// citeRequestDTO selects which citation-flow view POST /v1/cite serves.
type citeRequestDTO struct {
	// View is "flow" (observed-versus-null citation flow per citing-team
	// gender composition, the default) or "gap" (the same comparison per
	// conference-year).
	View string `json:"view"`
}

// citeViews maps each /v1/cite view to the exhibit query that serves it.
// Both queries are verified byte-for-byte against their report CSV
// families, so the route inherits the reproduction's correctness anchor.
var citeViews = map[string]string{
	"flow": "cite_flow",
	"gap":  "cite_gap",
}

// handleCite serves POST /v1/cite: the gendered citation-flow workload as
// CSV. The body is an optional JSON {"view": "flow"|"gap"}; an empty body
// serves the flow view. Execution goes through runQuery, so in cluster
// mode the citations frame scatter-gathers across the shard federation
// and is byte-identical to the single-process path (the exhibits use only
// count and ratio aggregates, which merge exactly). Results memoize
// through the exhibit cache keyed by view and the revision-qualified
// study identity, so applying a delta invalidates exactly the citation
// renders whose inputs changed.
func (s *Server) handleCite(w http.ResponseWriter, r *http.Request) {
	key, err := s.parseStudyKey(r)
	if err != nil {
		writeQueryError(w, http.StatusBadRequest, err.Error())
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxQueryBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeQueryError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("cite request exceeds %d bytes", maxQueryBytes))
			return
		}
		writeQueryError(w, http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
		return
	}
	view := "flow"
	if len(bytes.TrimSpace(body)) > 0 {
		var req citeRequestDTO
		if err := json.Unmarshal(body, &req); err != nil {
			writeQueryError(w, http.StatusBadRequest, fmt.Sprintf("parsing cite request: %v", err))
			return
		}
		if req.View != "" {
			view = req.View
		}
	}
	name, ok := citeViews[view]
	if !ok {
		writeQueryError(w, http.StatusBadRequest,
			fmt.Sprintf("unknown cite view %q (have [flow gap])", view))
		return
	}
	eq, ok := repro.ExhibitQueryByName(name)
	if !ok {
		writeQueryError(w, http.StatusInternalServerError,
			fmt.Sprintf("exhibit query %q is not registered", name))
		return
	}
	st, err := s.studies.Get(r.Context(), key)
	if err != nil {
		writeQueryError(w, errorStatus(err),
			fmt.Sprintf("materializing study (%s): %v", key, err))
		return
	}

	cacheKey := "cite|" + view + "|" + cacheID(key, st)
	out, outcome, err := s.cache.Get(r.Context(), cacheKey, func(ctx context.Context) ([]byte, error) {
		if injected, ferr := s.renderFault(ctx, chaos.PointRender); injected {
			return nil, ferr
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		start := s.clock.Now()
		defer func() { s.met.renders.ObserveDuration(s.clock.Now().Sub(start)) }()
		res, err := s.runQuery(ctx, key, st, eq.Query)
		if err != nil {
			return nil, err
		}
		return res.CSV()
	})
	if err != nil {
		writeQueryError(w, errorStatus(err), err.Error())
		return
	}
	s.met.queries.With(eq.Query.Frame).Inc()
	s.met.citeQueries.Inc()
	h := w.Header()
	h.Set("Content-Type", "text/csv; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(out)))
	h.Set("X-Cache", outcome)
	if outcome == CacheStale {
		h.Set("Warning", `110 whpcd "stale: re-render failed; bytes are from an earlier identical render"`)
	}
	_, _ = w.Write(out)
}
