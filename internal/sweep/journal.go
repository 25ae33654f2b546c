package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// Journal is the crash-safe completion log backing checkpoint/resume: one
// JSON line per finished job, keyed by the job's content hash, appended and
// fsynced as each job completes. Reopening a journal replays its entries,
// so a resumed campaign re-runs only the jobs whose keys are missing. A
// torn final line (from a crash between write and fsync) is truncated on
// load so the campaign resumes cleanly and later appends cannot glue onto
// the partial record.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	seen map[string]Result
}

// OpenJournal opens (creating if needed) the journal at path and replays
// its completed entries.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: open journal: %w", err)
	}
	j := &Journal{f: f, seen: map[string]Result{}}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: read journal: %w", err)
	}
	// A crash between an append's write and its fsync can tear the final
	// line. Every complete entry ends in '\n' (line and terminator go down
	// in one write), so an unterminated tail is a torn record: truncate it
	// away so the next append starts on a clean line boundary instead of
	// gluing onto the partial bytes and corrupting an otherwise-valid
	// entry. The torn job simply re-runs.
	if n := len(data); n > 0 && data[n-1] != '\n' {
		cut := bytes.LastIndexByte(data, '\n') + 1
		if err := f.Truncate(int64(cut)); err != nil {
			f.Close()
			return nil, fmt.Errorf("sweep: truncate torn journal tail: %w", err)
		}
		data = data[:cut]
	}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var r Result
		if err := json.Unmarshal(line, &r); err != nil || r.Key == "" {
			// Foreign or corrupt interior line: skip it. The matching job
			// simply re-runs.
			continue
		}
		j.seen[r.Key] = r
	}
	return j, nil
}

// Len returns the number of distinct completed jobs on record.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.seen)
}

// Lookup returns the cached result for a job key, if present.
func (j *Journal) Lookup(key string) (Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	r, ok := j.seen[key]
	return r, ok
}

// Append records a completed job: one marshaled line, flushed to disk
// before returning so a crash cannot lose an acknowledged completion.
func (j *Journal) Append(r Result) error {
	if r.Key == "" {
		return fmt.Errorf("sweep: journal entry without key (job %q)", r.JobID)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("sweep: journal entry: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("sweep: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("sweep: journal sync: %w", err)
	}
	j.seen[r.Key] = r
	return nil
}

// Close releases the underlying file. The journal must not be used after.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
