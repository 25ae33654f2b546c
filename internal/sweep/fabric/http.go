package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"dynamicdf/internal/sweep"
)

// Wire protocol, mounted under /fabric/ on the coordinator's mux:
//
//	POST /fabric/register   {"worker": ID}                  -> RegisterInfo
//	POST /fabric/lease      {"worker": ID}                  -> Lease | 204
//	POST /fabric/heartbeat  {"worker": ID, "leases": [...]} -> {"expired": [...]}
//	POST /fabric/results    NDJSON of resultEnvelope lines  -> NDJSON of ackLine
//
// Results travel the NDJSON channel the rest of the system uses: one JSON
// line per result, acked line-by-line so a worker can stream many
// completions over a single request and re-send any line whose ack it
// never saw — the coordinator's ack path is idempotent by job key.

type workerRequest struct {
	Worker string `json:"worker"`
}

type heartbeatRequest struct {
	Worker string     `json:"worker"`
	Leases []LeaseRef `json:"leases"`
}

type heartbeatResponse struct {
	Expired []LeaseRef `json:"expired,omitempty"`
}

// resultEnvelope is one NDJSON result line: the campaign the result
// belongs to plus the result itself. Worker and Span echo the lease's
// trace context so the coordinator's result-ack event closes the span
// that worker's job-run events opened; older workers omit them and the
// coordinator falls back to the slot's own attribution.
type resultEnvelope struct {
	Campaign string       `json:"campaign"`
	Worker   string       `json:"worker,omitempty"`
	Span     string       `json:"span,omitempty"`
	Result   sweep.Result `json:"result"`
}

// ackLine is the coordinator's per-result reply.
type ackLine struct {
	Key    string `json:"key"`
	Status string `json:"status"`
}

// Handler returns the coordinator's HTTP routes. Mount it at /fabric/ on
// the serving mux.
func (h *Hub) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fabric/register", func(w http.ResponseWriter, r *http.Request) {
		var req workerRequest
		if !decodeBody(w, r, &req) {
			return
		}
		writeFabricJSON(w, http.StatusOK, h.Register(req.Worker))
	})
	mux.HandleFunc("POST /fabric/lease", func(w http.ResponseWriter, r *http.Request) {
		var req workerRequest
		if !decodeBody(w, r, &req) {
			return
		}
		lease := h.Lease(req.Worker)
		if lease == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeFabricJSON(w, http.StatusOK, lease)
	})
	mux.HandleFunc("POST /fabric/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req heartbeatRequest
		if !decodeBody(w, r, &req) {
			return
		}
		writeFabricJSON(w, http.StatusOK, heartbeatResponse{Expired: h.Heartbeat(req.Worker, req.Leases)})
	})
	mux.HandleFunc("POST /fabric/results", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		sc := bufio.NewScanner(r.Body)
		// Start from bufio's default buffer: workers post one small result
		// per request, and the scanner grows it up to the 4 MiB line cap.
		sc.Buffer(nil, 1<<22)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var env resultEnvelope
			ack := ackLine{Status: AckUnknown}
			if err := json.Unmarshal(line, &env); err == nil && env.Result.Key != "" {
				ack.Key = env.Result.Key
				ack.Status = h.AckSpanned(env.Campaign, env.Worker, env.Span, env.Result)
			}
			if err := enc.Encode(ack); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	})
	return mux
}

func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(v); err != nil {
		writeFabricJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return false
	}
	return true
}

func writeFabricJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// Client is a worker's view of the coordinator.
type Client struct {
	// Base is the coordinator's root URL, e.g. "http://127.0.0.1:8350".
	Base string
	// HTTP is the transport (default http.DefaultClient).
	HTTP *http.Client
}

// NewClient returns a client for the coordinator at base.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) post(ctx context.Context, path string, body interface{}, out interface{}) (int, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return resp.StatusCode, nil
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return resp.StatusCode, fmt.Errorf("fabric: %s: status %d: %s", path, resp.StatusCode, msg)
	}
	if out != nil {
		// Read the body to EOF, which also frees the connection for reuse,
		// and decode it in one pass.
		b, err := io.ReadAll(resp.Body)
		if err == nil {
			err = json.Unmarshal(b, out)
		}
		if err != nil {
			return resp.StatusCode, fmt.Errorf("fabric: %s: decode: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

// Register announces the worker and returns the coordinator's lease
// parameters.
func (c *Client) Register(ctx context.Context, worker string) (RegisterInfo, error) {
	var info RegisterInfo
	_, err := c.post(ctx, "/fabric/register", workerRequest{Worker: worker}, &info)
	return info, err
}

// Lease requests the worker's next job. A nil lease with nil error means
// no work is available right now.
func (c *Client) Lease(ctx context.Context, worker string) (*Lease, error) {
	var lease Lease
	code, err := c.post(ctx, "/fabric/lease", workerRequest{Worker: worker}, &lease)
	if err != nil {
		return nil, err
	}
	if code == http.StatusNoContent {
		return nil, nil
	}
	return &lease, nil
}

// Heartbeat renews the held leases and returns the refs the coordinator
// no longer honors.
func (c *Client) Heartbeat(ctx context.Context, worker string, held []LeaseRef) ([]LeaseRef, error) {
	var resp heartbeatResponse
	if _, err := c.post(ctx, "/fabric/heartbeat", heartbeatRequest{Worker: worker, Leases: held}, &resp); err != nil {
		return nil, err
	}
	return resp.Expired, nil
}

// SendResultSpanned delivers one result line on the NDJSON results channel
// and returns the coordinator's ack status. Safe to call repeatedly for the
// same result: acks are idempotent by job key. The worker id and lease span
// attribute the coordinator's result-ack event to this delivery.
func (c *Client) SendResultSpanned(ctx context.Context, campaign, worker, span string, res sweep.Result) (string, error) {
	line, err := json.Marshal(resultEnvelope{Campaign: campaign, Worker: worker, Span: span, Result: res})
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/fabric/results",
		bytes.NewReader(append(line, '\n')))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return "", fmt.Errorf("fabric: results: status %d: %s", resp.StatusCode, msg)
	}
	var ack ackLine
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return "", fmt.Errorf("fabric: results: decode ack: %w", err)
	}
	return ack.Status, nil
}

// sleepCtx sleeps for d or until ctx is done, reporting whether the full
// sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
