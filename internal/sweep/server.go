package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dynamicdf/internal/obs"
)

// ServerConfig tunes the sweep results service.
type ServerConfig struct {
	// Workers bounds concurrent jobs per campaign (default GOMAXPROCS).
	Workers int
	// JournalDir, when set, persists one journal per campaign
	// (sweep-<id>.jsonl) so campaigns resume across service restarts.
	// Empty keeps campaigns in memory only.
	JournalDir string
	// MaxBodyBytes caps submitted spec documents (default 4 MiB).
	MaxBodyBytes int64
	// Metrics, when set, instruments every campaign's worker pool and the
	// per-job sim runs; serve it via obs.Registry.Handler at /metrics.
	Metrics *obs.Registry
	// Runner, when set, executes campaigns instead of the in-process pool
	// (e.g. the distributed fabric coordinator). The journal, progress
	// sink, and drain channel are still owned by the server and passed via
	// RunOpts.
	Runner CampaignRunner
}

// Server runs sweep campaigns behind an HTTP API:
//
//	POST   /sweeps              submit a spec; returns the campaign id
//	GET    /sweeps              list campaigns
//	GET    /sweeps/{id}         poll status and progress
//	GET    /sweeps/{id}/watch   stream progress lines until completion
//	GET    /sweeps/{id}/results fetch aggregated results (CSV or JSON)
//	DELETE /sweeps/{id}         cancel a running campaign
//	GET    /healthz             liveness
//
// Campaign ids are content-addressed (Spec.ID), so resubmitting a spec is
// idempotent: it attaches to the running campaign or, with a journal
// directory configured, resumes from cached results.
type Server struct {
	cfg ServerConfig

	// pool and gauges are shared by every campaign (registered once).
	pool   *obs.PoolMetrics
	gauges *obs.RunGauges

	mu       sync.Mutex
	sweeps   map[string]*sweepRun
	order    []string
	draining bool
	wg       sync.WaitGroup
}

// sweepRun is one campaign's lifecycle.
type sweepRun struct {
	id     string
	spec   *Spec
	cancel context.CancelFunc
	drain  chan struct{}

	mu       sync.Mutex
	state    string // "running" | "done" | "failed" | "canceled"
	progress Progress
	report   *Report
	errMsg   string
	started  time.Time
	notify   chan struct{} // closed+replaced on every update
	done     chan struct{} // closed once terminal
}

// NewServer returns an idle service.
func NewServer(cfg ServerConfig) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 4 << 20
	}
	s := &Server{cfg: cfg, sweeps: map[string]*sweepRun{}}
	if cfg.Metrics != nil {
		s.pool = obs.NewPoolMetrics(cfg.Metrics)
		s.gauges = obs.NewRunGauges(cfg.Metrics)
	}
	return s
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /sweeps", s.handleSubmit)
	mux.HandleFunc("GET /sweeps", s.handleList)
	mux.HandleFunc("GET /sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /sweeps/{id}/watch", s.handleWatch)
	mux.HandleFunc("GET /sweeps/{id}/results", s.handleResults)
	mux.HandleFunc("DELETE /sweeps/{id}", s.handleCancel)
	return mux
}

// Shutdown stops the service gracefully: new submissions are refused,
// every campaign is drained (in-flight jobs finish and are journaled,
// queued jobs are abandoned), and once ctx expires any still-running jobs
// are cancelled mid-horizon. Returns after all campaign goroutines exit.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	runs := make([]*sweepRun, 0, len(s.sweeps))
	for _, run := range s.sweeps {
		runs = append(runs, run)
	}
	s.mu.Unlock()

	for _, run := range runs {
		run.requestDrain()
	}
	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
	}
	for _, run := range runs {
		run.cancel()
	}
	<-finished
	return ctx.Err()
}

// Submit registers (or attaches to) the campaign for a spec and starts it
// if new. It returns the campaign id and whether a new run was started.
func (s *Server) Submit(spec *Spec) (string, bool, error) {
	id, err := spec.ID()
	if err != nil {
		return "", false, err
	}
	s.mu.Lock()
	known, err := s.admitLocked(id)
	s.mu.Unlock()
	if err != nil {
		return "", false, err
	}
	if known {
		return id, false, nil
	}
	// Expand without the lock: every handler and Shutdown take s.mu, and a
	// large spec takes a while to expand. A concurrent submit of the same
	// spec or a shutdown is caught by the second check below.
	jobs, err := spec.Expand()
	if err != nil {
		return "", false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if known, err = s.admitLocked(id); err != nil {
		return "", false, err
	}
	if known {
		return id, false, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	run := &sweepRun{
		id:      id,
		spec:    spec,
		cancel:  cancel,
		drain:   make(chan struct{}),
		state:   "running",
		started: time.Now(),
		notify:  make(chan struct{}),
		done:    make(chan struct{}),
	}
	run.progress.Total = len(jobs)
	s.sweeps[id] = run
	s.order = append(s.order, id)
	s.wg.Add(1)
	go s.execute(ctx, run, jobs)
	return id, true, nil
}

// admitLocked reports whether campaign id is already registered, and
// refuses every submission once the service is draining. The caller holds
// s.mu.
func (s *Server) admitLocked(id string) (bool, error) {
	if s.draining {
		return false, fmt.Errorf("sweep: service is shutting down")
	}
	_, ok := s.sweeps[id]
	return ok, nil
}

// execute drives one campaign, whose spec Submit expanded into jobs, to
// completion.
func (s *Server) execute(ctx context.Context, run *sweepRun, jobs []Job) {
	defer s.wg.Done()
	defer run.cancel()

	var journal *Journal
	if s.cfg.JournalDir != "" {
		j, err := OpenJournal(filepath.Join(s.cfg.JournalDir, "sweep-"+run.id+".jsonl"))
		if err != nil {
			run.finish(nil, "failed", err.Error())
			return
		}
		journal = j
		defer journal.Close()
	}
	runner := s.cfg.Runner
	if runner == nil {
		runner = &Engine{Workers: s.cfg.Workers, Pool: s.pool, Gauges: s.gauges}
	}
	report, err := runner.RunCampaign(ctx, run.spec, jobs, RunOpts{
		Journal:    journal,
		OnProgress: run.update,
		Drain:      run.drain,
	})
	switch {
	case err == nil:
		run.finish(report, "done", "")
	case ctx.Err() != nil:
		run.finish(report, "canceled", err.Error())
	case report != nil && report.Missing > 0:
		// Drained shutdown: journaled progress survives for the next run.
		run.finish(report, "canceled", err.Error())
	default:
		run.finish(report, "failed", err.Error())
	}
}

// update publishes engine progress to watchers.
func (r *sweepRun) update(p Progress) {
	r.mu.Lock()
	r.progress = p
	close(r.notify)
	r.notify = make(chan struct{})
	r.mu.Unlock()
}

// finish records the terminal state.
func (r *sweepRun) finish(report *Report, state, errMsg string) {
	r.mu.Lock()
	r.report = report
	r.state = state
	r.errMsg = errMsg
	if report != nil {
		r.progress = Progress{
			Total:       report.Total,
			Done:        report.CacheHits + report.Executed + report.Quarantined,
			CacheHits:   report.CacheHits,
			Executed:    report.Executed,
			Errors:      report.Errors,
			ForkHits:    report.ForkHits,
			Requeues:    report.Requeues,
			Quarantined: report.Quarantined,
		}
	}
	close(r.notify)
	r.notify = make(chan struct{})
	close(r.done)
	r.mu.Unlock()
}

// requestDrain asks the campaign to stop dispatching new jobs.
func (r *sweepRun) requestDrain() {
	r.mu.Lock()
	select {
	case <-r.drain:
	default:
		close(r.drain)
	}
	r.mu.Unlock()
}

// status is the wire form of a campaign's state.
type status struct {
	ID       string   `json:"id"`
	Name     string   `json:"name"`
	State    string   `json:"state"`
	Error    string   `json:"error,omitempty"`
	Progress Progress `json:"progress"`
	HitRate  float64  `json:"hitRate"`
}

func (r *sweepRun) snapshot() status {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := status{ID: r.id, Name: r.spec.Name, State: r.state, Error: r.errMsg, Progress: r.progress}
	if r.progress.Total > 0 {
		st.HitRate = float64(r.progress.CacheHits) / float64(r.progress.Total)
	}
	return st
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBodyBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if int64(len(body)) > s.cfg.MaxBodyBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "spec too large")
		return
	}
	spec, err := ParseSpec(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	id, created, err := s.Submit(spec)
	if err != nil {
		code := http.StatusBadRequest
		if s.isDraining() {
			code = http.StatusServiceUnavailable
		}
		httpError(w, code, err.Error())
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusAccepted
	}
	writeJSON(w, code, map[string]interface{}{
		"id":      id,
		"created": created,
		"status":  "/sweeps/" + id,
		"results": "/sweeps/" + id + "/results",
	})
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Server) lookup(id string) *sweepRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweeps[id]
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	sort.Strings(ids)
	out := make([]status, 0, len(ids))
	for _, id := range ids {
		if run := s.lookup(id); run != nil {
			out = append(out, run.snapshot())
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	run := s.lookup(r.PathValue("id"))
	if run == nil {
		httpError(w, http.StatusNotFound, "unknown sweep")
		return
	}
	writeJSON(w, http.StatusOK, run.snapshot())
}

// handleWatch streams one JSON progress line per update until the campaign
// finishes or the client goes away.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	run := s.lookup(r.PathValue("id"))
	if run == nil {
		httpError(w, http.StatusNotFound, "unknown sweep")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		run.mu.Lock()
		notify := run.notify
		run.mu.Unlock()
		st := run.snapshot()
		if err := enc.Encode(st); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if st.State != "running" {
			return
		}
		select {
		case <-notify:
		case <-run.done:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	run := s.lookup(r.PathValue("id"))
	if run == nil {
		httpError(w, http.StatusNotFound, "unknown sweep")
		return
	}
	run.mu.Lock()
	state, report, errMsg := run.state, run.report, run.errMsg
	run.mu.Unlock()
	switch state {
	case "running":
		httpError(w, http.StatusConflict, "sweep still running; poll /sweeps/"+run.id)
		return
	case "failed":
		httpError(w, http.StatusInternalServerError, errMsg)
		return
	}
	if report == nil {
		httpError(w, http.StatusInternalServerError, "no report recorded")
		return
	}
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, report)
		return
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = report.WriteCSV(w)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	run := s.lookup(r.PathValue("id"))
	if run == nil {
		httpError(w, http.StatusNotFound, "unknown sweep")
		return
	}
	run.cancel()
	writeJSON(w, http.StatusAccepted, map[string]string{"id": run.id, "state": "canceling"})
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
