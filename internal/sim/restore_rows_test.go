package sim_test

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"dynamicdf/internal/metrics"
	"dynamicdf/internal/scenario"
	"dynamicdf/internal/sim"
	"dynamicdf/internal/state"
)

// prerefactor builds the committed pre-refactor scenario and reads its
// state/v1 snapshot.
func prerefactor(t *testing.T) (*scenario.Built, []byte) {
	t.Helper()
	doc, err := os.ReadFile("../../testdata/prerefactor/scenario.json")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.ParseBytes(doc)
	if err != nil {
		t.Fatal(err)
	}
	built, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile("../../testdata/prerefactor/snap.json")
	if err != nil {
		t.Fatal(err)
	}
	return built, blob
}

// TestLegacyNetworkEntriesAreIgnored: the committed pre-refactor snapshot
// was written while the engine kept pairwise network estimators and each
// PE's last output rates, so it carries netLat, netBw, lastPeOut and
// lastPeExp. It still decodes and re-encodes to its own bytes, and it
// restores and runs to the horizon, ending in the same state as a restore
// with all four lists dropped; that end state's checkpoint encodes none of
// their keys.
func TestLegacyNetworkEntriesAreIgnored(t *testing.T) {
	_, blob := prerefactor(t)
	snap, err := state.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.NetLat) == 0 || len(snap.NetBW) == 0 || len(snap.LastPEOut) == 0 || len(snap.LastPEExp) == 0 {
		t.Fatalf("fixture carries %d/%d legacy network entries and %d/%d legacy output rates",
			len(snap.NetLat), len(snap.NetBW), len(snap.LastPEOut), len(snap.LastPEExp))
	}
	again, err := state.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, bytes.TrimSpace(blob)) {
		t.Fatal("the legacy snapshot does not re-encode to its own bytes")
	}
	bare, err := state.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	bare.NetLat, bare.NetBW, bare.LastPEOut, bare.LastPEExp = nil, nil, nil, nil
	var ends [2][]byte
	for i, s := range []*state.Snapshot{snap, bare} {
		built, _ := prerefactor(t)
		e, err := sim.Restore(s, built.Config)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(built.Scheduler); err != nil {
			t.Fatal(err)
		}
		end, err := e.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if ends[i], err = state.Encode(end); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(ends[0], ends[1]) {
		t.Fatal("the legacy entries changed the restored run")
	}
	for _, key := range []string{`"netLat"`, `"netBw"`, `"lastPeOut"`, `"lastPeExp"`} {
		if bytes.Contains(ends[0], []byte(key)) {
			t.Fatalf("a fresh checkpoint encodes %s", key)
		}
	}
}

// TestRestoreDropsEmptyQueueCells: the committed pre-refactor snapshot
// was written while a queue cell outlived its messages, so 7 of its 11
// queue cells are empty, 3 of them on VMs released since. Restore drops
// them, and a checkpoint taken right after it carries exactly the file's 4
// cells that hold messages.
func TestRestoreDropsEmptyQueueCells(t *testing.T) {
	built, blob := prerefactor(t)
	snap, err := state.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	var held []state.QueueCell
	for _, c := range snap.Queues {
		if c.Queue > 0 {
			held = append(held, c)
		}
	}
	if len(snap.Queues) != 11 || len(held) != 4 {
		t.Fatalf("fixture carries %d queue cells, %d of them holding messages; want 11 and 4", len(snap.Queues), len(held))
	}
	e, err := sim.Restore(snap, built.Config)
	if err != nil {
		t.Fatal(err)
	}
	again, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(again.Queues, held) {
		t.Fatalf("the restored engine checkpoints queue cells\n%+v\nwant the file's cells holding messages\n%+v", again.Queues, held)
	}
}

// TestRestoreRejectsMetricRowCountMismatch: Ω's tally and the metric series
// both advance once per interval, so a snapshot with a metric row dropped or
// duplicated — re-encoded, so its digest holds — is refused with an error
// naming both counts, instead of resuming a run that reports one interval
// too few or too many. The committed pre-refactor snapshot still restores.
func TestRestoreRejectsMetricRowCountMismatch(t *testing.T) {
	built, blob := prerefactor(t)
	snap, err := state.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Restore(snap, built.Config); err != nil {
		t.Fatalf("the committed snapshot does not restore: %v", err)
	}
	n := len(snap.Metrics)
	if n < 3 || snap.OmegaN != n {
		t.Fatalf("fixture has %d metric rows for %d intervals", n, snap.OmegaN)
	}
	for _, tc := range []struct {
		name string
		edit func([]metrics.Point) []metrics.Point
	}{
		{"dropped row", func(m []metrics.Point) []metrics.Point { return slices.Delete(m, n/2, n/2+1) }},
		{"duplicated row", func(m []metrics.Point) []metrics.Point { return slices.Insert(m, n/2, m[n/2]) }},
	} {
		bad, err := state.Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		bad.Metrics = tc.edit(bad.Metrics)
		reencoded, err := state.Encode(bad)
		if err != nil {
			t.Fatal(err)
		}
		if bad, err = state.Decode(reencoded); err != nil {
			t.Fatalf("%s: re-encoded snapshot does not decode: %v", tc.name, err)
		}
		_, err = sim.Restore(bad, built.Config)
		want := fmt.Sprintf("%d metric rows for %d intervals", len(bad.Metrics), n)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: restore error %v, want one naming %q", tc.name, err, want)
		}
	}
}
