// Command dfbench regenerates every table and figure of the paper's
// evaluation section and prints the rows/series the paper reports.
//
// Usage:
//
//	dfbench [-quick] [-seed N] [-horizon HOURS] [-only FIG] [-csvdir DIR] [-check]
//	dfbench -sweep {GRID|SPEC.json} [-sweep-replicas N] [-workers N] [-journal FILE]
//	dfbench -sweep ... -coordinator URL
//
// -quick runs a reduced sweep (shorter horizon, fewer rates) for smoke
// testing; the default reproduces the full 10-hour evaluation. Figs. 4-8
// run as the named sweep grids on the campaign engine (internal/sweep),
// one replica per cell; -csvdir writes each study's plot-ready CSV from
// the same result its table prints.
//
// -sweep prints a campaign's aggregate report instead: a named grid
// (GRID is one of the names experiments.GridNames lists, the figures'
// grids among them) with -sweep-replicas seed replicas per cell, or a
// sweep spec JSON file as-is, executed on a bounded worker pool. With
// -journal, completed jobs are cached and a re-run only executes what is
// missing.
//
// -coordinator submits the campaign to a running dfserve instead of
// executing locally: progress streams back over the watch channel and the
// aggregated report is fetched when the campaign finishes. Point it at a
// `dfserve -fabric` coordinator to run the grid on attached workers.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"dynamicdf/internal/experiments"
	"dynamicdf/internal/sweep"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dfbench: ")
	quick := flag.Bool("quick", false, "reduced sweep for smoke runs")
	seed := flag.Int64("seed", 42, "seed for traces and profiles")
	horizon := flag.Float64("horizon", 0, "override horizon in hours (0 = config default)")
	only := flag.String("only", "", "run a single figure: 2,3,4,5,6,7,8,9, ft (fault tolerance), latency, spot, scalability, ablations or vmtable")
	csvDir := flag.String("csvdir", "", "also write plot-ready CSVs for every figure run into this directory")
	check := flag.Bool("check", false, "verify the paper's qualitative claims and print a reproduction scorecard")
	sweepArg := flag.String("sweep", "", "print a campaign's aggregate report: a named grid ("+
		strings.Join(experiments.GridNames(), ", ")+") or a sweep spec JSON file")
	sweepReplicas := flag.Int("sweep-replicas", 3, "seed replicas per grid cell for named grids")
	workers := flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	journal := flag.String("journal", "", "sweep journal file for cached, resumable campaigns")
	coordinator := flag.String("coordinator", "", "submit the sweep to a running dfserve at this base URL instead of executing locally")
	flag.Parse()

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	cfg.Seed = *seed
	if *horizon > 0 {
		cfg.HorizonSec = int64(*horizon * 3600)
	}

	if *sweepArg != "" {
		if err := runSweep(cfg, *sweepArg, *sweepReplicas, *workers, *journal, *coordinator); err != nil {
			log.Fatal(err)
		}
		return
	}

	out := os.Stdout

	if *check {
		sc, err := experiments.CheckClaims(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out, sc.Table())
		if sc.Passed() != len(sc.Claims) {
			os.Exit(1)
		}
		return
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	show := func(fig string) bool { return *only == "" || *only == fig }
	emit := func(r study, err error) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out, r.Table())
	}
	// emitCSV is emit that, with -csvdir, also writes the study's CSV as
	// name from the same result.
	emitCSV := func(r csvStudy, err error, name string) {
		emit(r, err)
		if *csvDir == "" {
			return
		}
		if err := writeCSV(filepath.Join(*csvDir, name+".csv"), r); err != nil {
			log.Fatal(err)
		}
	}

	if show("vmtable") {
		fmt.Fprintln(out, experiments.VMClassTable())
	}
	if show("2") {
		emit(experiments.RunFig2(cfg.Seed, 8))
	}
	if show("3") {
		emit(experiments.RunFig3(cfg.Seed))
	}
	if show("4") {
		r, err := experiments.RunFig4(cfg)
		emitCSV(r, err, "fig4")
	}
	if show("5") {
		r, err := experiments.RunFig5(cfg)
		emitCSV(r, err, "fig5")
	}
	if show("6") {
		r, err := experiments.RunFig6(cfg)
		emitCSV(r, err, "fig6")
	}
	if show("7") {
		r, err := experiments.RunFig7(cfg)
		emitCSV(r, err, "fig7")
	}
	if show("scalability") {
		r, err := experiments.RunScalability(cfg)
		emit(r, err)
	}
	if show("ablations") {
		r, err := experiments.RunAblations(cfg)
		emitCSV(r, err, "ablations")
	}
	if show("latency") {
		r, err := experiments.RunLatencyQoS(cfg, 15)
		emit(r, err)
	}
	if show("spot") {
		r, err := experiments.RunSpotMarket(cfg, 20, 0.3, 1.0)
		emit(r, err)
	}
	if show("ft") {
		r, err := experiments.RunFaultTolerance(cfg, 20, 2)
		emitCSV(r, err, "fault_tolerance")
	}
	if show("8") || *only == "9" {
		f8, err := experiments.RunFig8(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if show("8") {
			emitCSV(f8, nil, "fig8")
		}
		r, err := experiments.DeriveFig9(f8)
		emitCSV(r, err, "fig9")
	}
	if *csvDir != "" {
		fmt.Fprintf(out, "wrote per-figure CSVs to %s\n", *csvDir)
	}
}

// study is what dfbench prints of a figure or study: its table.
type study interface{ Table() string }

// csvStudy is a study that also has a plot-ready CSV.
type csvStudy interface {
	study
	WriteCSV(io.Writer) error
}

// writeCSV writes r's CSV to path.
func writeCSV(path string, r csvStudy) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteCSV(f); err != nil {
		f.Close()
		return fmt.Errorf("csv %s: %w", path, err)
	}
	return f.Close()
}

// runSweep resolves arg as a named grid or a sweep spec file and executes
// it on the campaign engine — or, with a coordinator URL, submits it to a
// running dfserve. SIGINT cancels the run; with a journal the next
// invocation resumes from whatever completed.
func runSweep(cfg experiments.Config, arg string, replicas, workers int, journalPath, coordinator string) error {
	var spec *sweep.Spec
	if data, err := os.ReadFile(arg); err == nil {
		spec, err = sweep.ParseSpec(data)
		if err != nil {
			return fmt.Errorf("sweep spec %s: %w", arg, err)
		}
	} else if os.IsNotExist(err) {
		spec, err = experiments.NamedGrid(arg, cfg, replicas)
		if err != nil {
			return err
		}
	} else {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if coordinator != "" {
		return submitSweep(ctx, coordinator, spec)
	}

	jobs, err := spec.Expand()
	if err != nil {
		return err
	}
	opts := sweep.RunOpts{OnProgress: func(p sweep.Progress) {
		fmt.Fprintf(os.Stderr, "\rsweep %s: %d/%d done (%d cached, %d errors)",
			spec.Name, p.Done, p.Total, p.CacheHits, p.Errors)
		if p.Done == p.Total {
			fmt.Fprintln(os.Stderr)
		}
	}}
	if journalPath != "" {
		if opts.Journal, err = sweep.OpenJournal(journalPath); err != nil {
			return err
		}
		defer opts.Journal.Close()
	}

	rep, err := (&sweep.Engine{Workers: workers}).RunCampaign(ctx, spec, jobs, opts)
	if err != nil {
		return err
	}
	fmt.Println(rep.Table())
	return nil
}

// submitSweep runs the campaign on a remote dfserve: submit the spec,
// stream progress over the watch channel, then fetch the aggregated
// report. The remote journals completions, so a resubmitted spec only
// executes what is missing there.
func submitSweep(ctx context.Context, coordinator string, spec *sweep.Spec) error {
	base := strings.TrimRight(coordinator, "/")
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/sweeps", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("submit to %s: %w", base, err)
	}
	var sub struct {
		ID      string `json:"id"`
		Created bool   `json:"created"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("submit decode: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("submit: status %d", resp.StatusCode)
	}
	fmt.Fprintf(os.Stderr, "sweep %s: campaign %s (created=%v) on %s\n", spec.Name, sub.ID, sub.Created, base)

	// Stream progress until the campaign leaves the running state.
	watchReq, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/sweeps/"+sub.ID+"/watch", nil)
	if err != nil {
		return err
	}
	watchResp, err := http.DefaultClient.Do(watchReq)
	if err != nil {
		return fmt.Errorf("watch: %w", err)
	}
	defer watchResp.Body.Close()
	var last struct {
		State    string         `json:"state"`
		Error    string         `json:"error"`
		Progress sweep.Progress `json:"progress"`
	}
	dec := json.NewDecoder(watchResp.Body)
	for dec.More() {
		if err := dec.Decode(&last); err != nil {
			return fmt.Errorf("watch decode: %w", err)
		}
		p := last.Progress
		fmt.Fprintf(os.Stderr, "\rsweep %s: %d/%d done (%d cached, %d errors, %d requeued, %d workers)",
			spec.Name, p.Done, p.Total, p.CacheHits, p.Errors, p.Requeues, p.Workers)
	}
	fmt.Fprintln(os.Stderr)
	if last.State != "done" {
		return fmt.Errorf("sweep ended in state %q: %s", last.State, last.Error)
	}

	resp, err = http.Get(base + "/sweeps/" + sub.ID + "/results?format=json")
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("results: status %d: %s", resp.StatusCode, msg)
	}
	var rep sweep.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return fmt.Errorf("results decode: %w", err)
	}
	fmt.Println(rep.Table())
	return nil
}
