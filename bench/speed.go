package main

import (
	"encoding/binary"
	"fmt"
	"syscall"
	"time"
)

// The benchmark shares its host with other machines' work, and over minutes
// the host runs the same code up to two fifths slower or faster. hostPace
// measures that with a fixed loop that lives here, not in the program, so no
// change to the program moves it: a pointer chase through a 16 MB table.
// None of the other loops tried, hashing, map and sort, allocation and
// floating-point loops, or probes sampled alongside the batch, tracked the
// simulator consistently better (README.md). A batch's slowdown is the mean
// of the pace before and after it over paceNominal, and the batch's times
// are divided by it. It makes up about half of the drift, not all of it.
const (
	paceNominal = 26.0 // ms the loop takes on an unloaded host
	chaseLen    = 1 << 22
	chaseSteps  = 200_000
)

// hostPace returns the best of three timings of the loop, in ms. The table
// is mapped outside the Go heap and unmapped before hostPace returns, so it
// neither moves the collector's pacing nor stays in the resident set.
func hostPace() (float64, error) {
	mem, err := syscall.Mmap(-1, 0, 4*chaseLen, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return 0, fmt.Errorf("host pace: %w", err)
	}
	// A full-period linear congruential step links 0..chaseLen-1 into one
	// cycle in an order the prefetcher cannot follow.
	for x := uint32(0); x < chaseLen; x++ {
		binary.LittleEndian.PutUint32(mem[4*x:], (x*1103515245+12345)&(chaseLen-1))
	}
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		i := uint32(0)
		for j := 0; j < chaseSteps; j++ {
			i = binary.LittleEndian.Uint32(mem[4*i:])
		}
		d := ms(time.Since(start))
		if rep == 0 || d < best {
			best = d
		}
		paceSink = i
	}
	if err := syscall.Munmap(mem); err != nil {
		return 0, fmt.Errorf("host pace: %w", err)
	}
	return best, nil
}

// paceSink keeps the chase from being optimized away.
var paceSink uint32
