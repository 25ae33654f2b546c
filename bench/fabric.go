package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"dynamicdf/internal/sweep"
	"dynamicdf/internal/sweep/fabric"
)

// wire is the one HTTP transport of the fabric service's clients, the
// worker's and the one that submits and watches the campaign. It counts and
// times every worker-to-coordinator round trip by endpoint and signals the
// worker's registration. Requests and responses pass through untouched.
type wire struct {
	inner      *http.Transport
	registered chan struct{}
	once       sync.Once

	mu                       sync.Mutex
	rtt                      time.Duration
	leases, leaseHits, beats int
}

func newWire() *wire {
	// The worker's slots, its heartbeat and the campaign's watch stream
	// share these connections; the cap keeps the load at procs connections.
	// No request holds one for long but the watch stream: a lease returns
	// at once, with or without a job.
	return &wire{
		inner:      &http.Transport{MaxConnsPerHost: procs, MaxIdleConnsPerHost: procs},
		registered: make(chan struct{}),
	}
}

func (w *wire) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := w.inner.RoundTrip(r)
	d := time.Since(start)
	w.mu.Lock()
	defer w.mu.Unlock()
	if strings.HasPrefix(r.URL.Path, "/fabric/") {
		w.rtt += d
	}
	ok := err == nil && resp.StatusCode == http.StatusOK
	switch r.URL.Path {
	case "/fabric/register":
		if ok {
			w.once.Do(func() { close(w.registered) })
		}
	case "/fabric/lease":
		w.leases++
		if ok {
			w.leaseHits++
		}
	case "/fabric/heartbeat":
		w.beats++
	}
	return resp, err
}

// fabricService is the dfserve -fabric wiring on a loopback port: a
// sweep.Server whose campaign runner is a fabric.Hub, both mounted on one
// mux, plus one fabric.Worker with procs slots attached over HTTP.
type fabricService struct {
	base       string
	http       *http.Server
	served     chan struct{}
	srv        *sweep.Server
	wire       *wire
	client     *http.Client // over wire
	stopWorker context.CancelFunc
	worker     chan error
}

// startFabric brings the service up and returns once the worker has
// registered with the coordinator.
func startFabric(p *probe) (*fabricService, error) {
	hub := fabric.NewHub(fabric.Config{Tracer: p.eventTracer()})
	srv := sweep.NewServer(sweep.ServerConfig{Runner: hub})
	mux := http.NewServeMux()
	mux.Handle("/fabric/", hub.Handler())
	mux.Handle("/", srv.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &fabricService{
		base:   "http://" + ln.Addr().String(),
		http:   &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan struct{}),
		srv:    srv,
		wire:   newWire(),
		worker: make(chan error, 1),
	}
	s.client = &http.Client{Transport: s.wire}
	go func() {
		defer close(s.served)
		_ = s.http.Serve(ln) // returns http.ErrServerClosed once stop shuts the server down
	}()
	client := fabric.NewClient(s.base)
	client.HTTP = s.client
	w := fabric.NewWorker(fabric.WorkerConfig{
		ID:           "bench-worker",
		Client:       client,
		Slots:        procs,
		PollInterval: 10 * time.Millisecond,
		Tracer:       p.eventTracer(),
	})
	ctx, cancel := context.WithCancel(context.Background())
	s.stopWorker = cancel
	go func() { s.worker <- w.Run(ctx) }()
	select {
	case <-s.wire.registered:
		return s, nil
	case err := <-s.worker:
		s.worker <- err
		return nil, errors.Join(fmt.Errorf("fabric worker: %w", err), s.stop())
	case <-time.After(30 * time.Second):
		return nil, errors.Join(errors.New("fabric worker did not register"), s.stop())
	}
}

// submit posts the spec document and returns the campaign id.
func (s *fabricService) submit(doc []byte) (string, error) {
	resp, err := s.client.Post(s.base+"/sweeps", "application/json", bytes.NewReader(doc))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var sub struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted || sub.ID == "" {
		return "", fmt.Errorf("submit: status %d: %s", resp.StatusCode, sub.Error)
	}
	return sub.ID, nil
}

// wait follows the campaign's progress stream until it ends and fetches the
// report.
func (s *fabricService) wait(id string) (*sweep.Report, error) {
	resp, err := s.client.Get(s.base + "/sweeps/" + id + "/watch")
	if err != nil {
		return nil, err
	}
	state := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			resp.Body.Close()
			return nil, fmt.Errorf("watch: %w", err)
		}
		if state = st.State; state != "running" {
			if state != "done" {
				err = fmt.Errorf("campaign ended %s: %s", state, st.Error)
			}
			break
		}
	}
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if state != "done" {
		return nil, fmt.Errorf("watch stream ended in state %q: %v", state, sc.Err())
	}
	resp, err = s.client.Get(s.base + "/sweeps/" + id + "/results?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("results: status %d: %s", resp.StatusCode, msg)
	}
	var rep sweep.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	return &rep, nil
}

// stop shuts the worker, the HTTP server and the sweep server down and
// waits for each to end.
func (s *fabricService) stop() error {
	s.stopWorker()
	werr := <-s.worker
	if errors.Is(werr, context.Canceled) {
		werr = nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := s.http.Shutdown(ctx)
	<-s.served
	serr := s.srv.Shutdown(ctx)
	s.wire.inner.CloseIdleConnections()
	return errors.Join(werr, herr, serr)
}
