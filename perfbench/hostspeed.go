package main

import (
	"fmt"
	"runtime"
	"time"
)

// The benchmark shares a host whose CPU speed drifts. Over a ten-minute
// table1-fast run on a 2-vCPU KVM guest, the session rate of 10 s, 30 s
// and 55 s windows spread alike, by 0.10-0.13 of its median (IQR), so
// longer runs do not average the drift away. CPU time drifts with it:
// the host changes how fast an instruction runs, not only how often the
// guest is scheduled.
//
// A fixed reference kernel, timed after every session, moves with the
// drift. The end-to-end times are therefore reported at reference speed
// (setup_s only where set-up is CPU work; see scaleToReference):
// multiplied by refNominal / (the run's median kernel time), and the
// rate divided by that. Over ten interleaved 30 s runs per workload
// this cut the spread of the four timed metrics other than setup_s from
// 0.07-0.17 unscaled to 0.02-0.06 (README.md has the table). The kernel
// is the benchmark's own code, so no change to the program moves it;
// the unscaled values are kept in the result's context line.

// refNominal is the reference kernel's time at reference speed. On the
// host the bounds were measured on, its run medians were 1.7-2.4 ms.
const refNominal = 2 * time.Millisecond

// The kernel's working sets are allocated once, so that the kernel never
// allocates and never assists the garbage collector. refTable (1 MiB)
// is larger than L1 and fits in L2.
var (
	refWork  [512]float64
	refTable = func() []float64 {
		t := make([]float64, 1<<17)
		for i := range t {
			t[i] = float64(i%101) * 0.01
		}
		return t
	}()
	refSink float64
)

// refKernel has two parts, each about 1 ms on that host: a float loop
// with a data-dependent branch and a serial accumulator (how fast the
// core runs), and random reads from refTable (how much cache the core
// keeps). The solver's repair and evaluation loops depend on both.
func refKernel() float64 {
	for i := range refWork {
		refWork[i] = float64(i%37) * 0.25
	}
	acc := 0.0
	for r := 0; r < 360; r++ {
		for i, x := range refWork {
			v := x*1.0001 + acc*1e-9
			if v > 4 {
				v = v*0.5 - 1
			}
			refWork[i] = v
			acc += v * v
		}
	}
	x := uint64(7)
	for i := 0; i < 60000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		if v := refTable[(x>>20)&(1<<17-1)]; v > 0.5 {
			acc += v * 1.0001
		} else {
			acc -= v * 0.5
		}
	}
	return acc
}

// kernelTime is the wall and CPU time of reference kernel runs.
type kernelTime struct{ wall, cpu time.Duration }

// timeRefKernel runs the reference kernel once and times it. Its CPU
// time is its own thread's, so that work the program's other goroutines
// do meanwhile is not taken out of the program's CPU time.
func timeRefKernel() kernelTime {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0, t0 := threadCPUTime(), time.Now()
	refSink += refKernel()
	return kernelTime{time.Since(t0), threadCPUTime() - c0}
}

// rusageThread is Linux's RUSAGE_THREAD.
const rusageThread = 1

// threadCPUTime is the calling thread's user+system CPU time so far.
func threadCPUTime() time.Duration { return rusageCPU(rusageThread) }

// slowness is how much slower than reference speed the host ran: the
// median kernel time over refNominal.
func slowness(ref []time.Duration) float64 {
	return median(ms(ref)) / (float64(refNominal) / float64(time.Millisecond))
}

// scaledMetrics are the end-to-end metrics that are times (divided by
// the host's slowness) or rates (multiplied by it).
var scaledMetrics = []struct {
	name string
	rate bool
}{
	{"setup_s", false},
	{"sessions_per_s", true},
	{"cpu_ms_per_session", false},
	{"answer_wait_ms_p50", false},
	{"answer_wait_ms_p90", false},
}

// scaleToReference rescales the end-to-end times to reference speed
// using the kernel times taken in the timed region, and records the
// unscaled values and the kernel's median in the context. setupOnCPU
// says whether set-up is CPU work the kernel's speed stands for; where
// set-up waits on fsyncs and loopback HTTP (fleet-panel), rescaling it
// by CPU speed added the kernel's drift to set-up's own, and setup_s is
// left unscaled.
func (rep *report) scaleToReference(ref []time.Duration, setupOnCPU bool) error {
	if len(ref) == 0 {
		return fmt.Errorf("no reference kernel timings")
	}
	slow := slowness(ref)
	unscaled := map[string]float64{}
	for _, m := range scaledMetrics {
		v := rep.metrics[m.name]
		unscaled[m.name] = v
		if m.name == "setup_s" && !setupOnCPU {
			continue
		}
		if m.rate {
			rep.metrics[m.name] = v * slow
		} else {
			rep.metrics[m.name] = v / slow
		}
	}
	rep.context["unscaled"] = unscaled
	rep.context["ref_kernel_ms_p50"] = median(ms(ref))
	rep.context["ref_kernel_samples"] = len(ref)
	return nil
}
