package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
)

// Go runtime readings through runtime/metrics, which (unlike
// runtime.ReadMemStats) does not stop the world.

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/pauses/total/gc:seconds"},
	{Name: "/gc/heap/live:bytes"},
}

type runtimeReading struct {
	allocs, allocBytes, gcCycles uint64
	liveBytes                    uint64
	pauseCounts                  []uint64
	pauseBuckets                 []float64
}

func readRuntime() runtimeReading {
	metrics.Read(runtimeSamples)
	r := runtimeReading{
		allocs:     runtimeSamples[0].Value.Uint64() + runtimeSamples[1].Value.Uint64(),
		allocBytes: runtimeSamples[2].Value.Uint64(),
		gcCycles:   runtimeSamples[3].Value.Uint64(),
		liveBytes:  runtimeSamples[5].Value.Uint64(),
	}
	h := runtimeSamples[4].Value.Float64Histogram()
	r.pauseCounts = slices.Clone(h.Counts)
	r.pauseBuckets = h.Buckets
	return r
}

// pauseDelta expands the GC pauses between two readings into one value
// per pause (each bucket's upper bound).
func pauseDelta(a, b runtimeReading) []float64 {
	var out []float64
	for i := range b.pauseCounts {
		var prev uint64
		if i < len(a.pauseCounts) {
			prev = a.pauseCounts[i]
		}
		for n := b.pauseCounts[i] - prev; n > 0; n-- {
			out = append(out, b.pauseBuckets[i+1])
		}
	}
	return out
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest identifies the code under test without git: a SHA-256
// over the path and content of every .go file and go.mod in the module
// tree at root, in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		h.Write([]byte(p))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// steal is the host's CPU time counters from /proc/stat: the time the
// hypervisor ran something else while this machine's CPUs wanted to run
// (steal), and all time.
type steal struct{ steal, total int64 }

func hostSteal() steal {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return steal{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var st steal
	for i, f := range strings.Fields(line)[1:] {
		n, _ := strconv.ParseInt(f, 10, 64)
		st.total += n
		if i == 7 {
			st.steal = n
		}
	}
	return st
}

// frac is the share of time stolen between two readings.
func (b steal) frac(a steal) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
