package sim

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/rates"
)

// manyTenantConfig composes n 2-PE chain tenants onto one graph, each fed a
// constant 5 msg/s.
func manyTenantConfig(n int, horizon int64) Config {
	b := dataflow.NewBuilder()
	inputs := map[int]rates.Profile{}
	tenants := make([]Tenant, n)
	for i := range tenants {
		name := fmt.Sprintf("t%d", i)
		b.AddPE(name+"/src", dataflow.Alt("e", 1, 0.1, 1))
		b.AddPE(name+"/work", dataflow.Alt("e", 1, 0.5, 1))
		b.Connect(name+"/src", name+"/work")
		c, err := rates.NewConstant(5)
		if err != nil {
			panic(err)
		}
		inputs[2*i] = c
		tenants[i] = Tenant{Name: name, LoPE: 2 * i, HiPE: 2*i + 2, Graph: chainGraph(0.5)}
	}
	return Config{
		Graph:      b.MustBuild(),
		Menu:       cloud.MustMenu(cloud.AWS2013Classes()),
		Inputs:     inputs,
		HorizonSec: horizon,
		Tenants:    tenants,
	}
}

// allocBytes reports the bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestNewEngineReservationCapped: NewEngine reserves a run's metric rows up
// front, but never more than seriesReserveBytes of them, however long the
// horizon: an engine for about 10⁹ intervals of 64 tenants allocates at
// most the cap beyond one for a single interval, give or take the heap's
// rounding of the four series arrays up to whole 8 KiB pages.
func TestNewEngineReservationCapped(t *testing.T) {
	const pageRounding = 4 * 8 << 10
	newEngine := func(intervals int64) func() {
		return func() {
			if _, err := NewEngine(manyTenantConfig(64, intervals*60)); err != nil {
				t.Fatal(err)
			}
		}
	}
	base := allocBytes(newEngine(1))
	huge := allocBytes(newEngine(1e9))
	if huge > base+seriesReserveBytes+pageRounding {
		t.Fatalf("NewEngine for 1e9 intervals allocates %d bytes, %d for one interval; the reservation cap is %d",
			huge, base, seriesReserveBytes)
	}
	if rows := reservedRows(1e9, 64); rows <= 0 || rows >= 1e9 {
		t.Fatalf("reserved rows %d for 1e9 intervals", rows)
	}
}

// TestRunPastReservationCap: a run with more intervals than the reservation
// cap covers still records every row, and a restore from a checkpoint past
// the cap continues byte-identically.
func TestRunPastReservationCap(t *testing.T) {
	const tenants = 64
	rows := int64(reservedRows(math.MaxInt64, tenants)) + 3
	cfg := manyTenantConfig(tenants, rows*60)
	cold, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Run(&fixed{deploy: deployEven}); err != nil {
		t.Fatal(err)
	}
	if got := cold.Collector().Len(); int64(got) != rows {
		t.Fatalf("recorded %d rows over %d intervals", got, rows)
	}
	if omega, _, _ := cold.Collector().TenantSeries(); int64(len(omega)) != rows*tenants {
		t.Fatalf("recorded %d tenant cells, want %d", len(omega), rows*tenants)
	}

	prefix, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := prefix.RunUntil(context.Background(), &fixed{deploy: deployEven}, (rows-1)*60); err != nil {
		t.Fatal(err)
	}
	snap, err := prefix.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Restore(snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Run(&fixed{deploy: deployEven}); err != nil {
		t.Fatal(err)
	}
	var coldCSV, warmCSV bytes.Buffer
	if err := cold.Collector().WriteCSV(&coldCSV); err != nil {
		t.Fatal(err)
	}
	if err := warm.Collector().WriteCSV(&warmCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldCSV.Bytes(), warmCSV.Bytes()) {
		t.Fatal("metric CSV diverged after a restore past the reservation cap")
	}
}
