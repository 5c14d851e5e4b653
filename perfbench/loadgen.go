package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tensor"
)

// latencyLimit is the latency within which a correct answer counts
// towards goodput.
const latencyLimit = 25 * time.Millisecond

// job is one scheduled request: when it is due (offset from the phase
// start) and which prepared request it sends.
type job struct {
	due     time.Duration
	model   int
	variant int
}

// poissonSchedule draws an open-loop arrival schedule: a Poisson process
// at the given rate over dur, conditioned on its expected count — exactly
// rate×dur arrivals at uniformly drawn, sorted times — so every seed sends
// the same number of requests. Each arrival picks a model and one of its
// prepared request variants uniformly.
func poissonSchedule(rng *tensor.RNG, rate float64, dur time.Duration, models, variants int) []job {
	n := int(math.Round(rate * dur.Seconds()))
	due := make([]float64, n)
	for i := range due {
		due[i] = rng.Float64() * float64(dur)
	}
	sort.Float64s(due)
	out := make([]job, n)
	for i := range out {
		out[i] = job{due: time.Duration(due[i]), model: rng.Intn(models), variant: rng.Intn(variants)}
	}
	return out
}

// outcome is how one request ended.
type outcome int

const (
	answered outcome = iota // correct answer
	wrong                   // answer differs from the reference
	refused                 // shed, failed or errored
)

type sample struct {
	sentAt  time.Duration // offset of the send from the phase start
	latency time.Duration // from due to answer
	late    time.Duration // from due to send
	outcome outcome
}

// phase is one fixed-rate open-loop run.
type phase struct {
	name string
	rate float64
	dur  time.Duration // scheduled
	// elapsed runs from the phase start until its last answer arrived.
	elapsed time.Duration
	samples []sample
}

// drive runs sched open loop with the given number of senders. Senders
// take the next due job from the one shared schedule, wait until it is
// due, and send it. send returns how the request ended and when its answer
// had fully arrived; each request is timed from when it was due to that
// moment, so a stall is charged to every request it delays.
func drive(name string, rate float64, dur time.Duration, sched []job, senders int, send func(sender int, j job) (outcome, time.Time)) *phase {
	p := &phase{name: name, rate: rate, dur: dur, samples: make([]sample, len(sched))}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				j := sched[i]
				due := start.Add(j.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				oc, done := send(s, j)
				p.samples[i] = sample{sentAt: sent.Sub(start), latency: done.Sub(due), late: sent.Sub(due), outcome: oc}
			}
		}(s)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	return p
}

// warmUpTime is the unmeasured open-loop run at the low rate that
// precedes every measured phase, so connection pools, buffer pools and
// caches have settled when timing starts.
const warmUpTime = time.Second

func warmUp(rng *tensor.RNG, rate float64, models, variants, senders int, send func(int, job) (outcome, time.Time)) {
	drive("warm-up", rate, warmUpTime, poissonSchedule(rng, rate, warmUpTime, models, variants), senders, send)
}

// splitPhases divides a measured time between the low and the high rate:
// a third to the low one, two thirds to the high one, whose tail holds
// the rarer, heavier events and needs the samples.
func splitPhases(d time.Duration) (low, high time.Duration) {
	return d / 3, d * 2 / 3
}

// slices is how many times a run alternates between its timed parts, so
// that a slow spell of a shared machine falls on every metric alike
// rather than on whichever part happened to run then.
const slices = 3

// interleave runs `slices` rounds of: probe (the run's other timed work),
// then a low-rate and a high-rate open-loop slice. load is the time all
// low and high slices take together; the slices are pooled per rate.
func interleave(rng *tensor.RNG, load time.Duration, lowRate, highRate float64, models, variants, senders int,
	send func(int, job) (outcome, time.Time), probe func() error) (low, high *phase, err error) {
	lowDur, highDur := splitPhases(load)
	low, high = &phase{name: "low", rate: lowRate}, &phase{name: "high", rate: highRate}
	for i := 0; i < slices; i++ {
		if err := probe(); err != nil {
			return nil, nil, err
		}
		for _, p := range []*phase{low, high} {
			d := lowDur / slices
			if p == high {
				d = highDur / slices
			}
			runtime.GC()
			p.add(drive(p.name, p.rate, d, poissonSchedule(rng, p.rate, d, models, variants), senders, send))
		}
	}
	return low, high, nil
}

// add pools another slice's samples into p.
func (p *phase) add(q *phase) {
	off := p.dur
	for _, s := range q.samples {
		s.sentAt += off
		p.samples = append(p.samples, s)
	}
	p.dur += q.dur
	p.elapsed += q.elapsed
}

// phaseStats summarises a phase: latency quartile, median and tail, goodput,
// outcome counts, and whether the generator kept its schedule.
type phaseStats struct {
	Name        string  `json:"name"`
	RateRPS     float64 `json:"rate_rps"`
	Seconds     float64 `json:"seconds"`
	Sent        int     `json:"sent"`
	Answered    int     `json:"answered"`
	Wrong       int     `json:"wrong"`
	Refused     int     `json:"refused"`
	P25Ms       float64 `json:"p25_ms"`
	P50Ms       float64 `json:"p50_ms"`
	TailQ       float64 `json:"tail_quantile"`
	TailMs      float64 `json:"tail_ms"`
	BeyondTail  int     `json:"samples_beyond_tail"`
	GoodputRPS  float64 `json:"goodput_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	LateP99Ms   float64 `json:"late_p99_ms"`
	LateMaxMs   float64 `json:"late_max_ms"`
	Valid       bool    `json:"schedule_kept"`
	// QuantilesMs are the latency's p90, p95, p99 and maximum.
	QuantilesMs [4]float64 `json:"quantiles_ms"`
}

func (p *phase) stats() phaseStats {
	st := phaseStats{Name: p.name, RateRPS: p.rate, Seconds: p.dur.Seconds(), Sent: len(p.samples)}
	var lat, late []float64
	lastSend := p.dur
	for _, s := range p.samples {
		lat = append(lat, ms(s.latency))
		late = append(late, ms(s.late))
		switch s.outcome {
		case answered:
			st.Answered++
			if s.latency <= latencyLimit {
				st.GoodputRPS++
			}
		case wrong:
			st.Wrong++
		default:
			st.Refused++
		}
		lastSend = max(lastSend, s.sentAt)
	}
	st.GoodputRPS /= p.elapsed.Seconds()
	st.P25Ms = quantile(lat, 0.25)
	st.P50Ms = quantile(lat, 0.5)
	st.TailQ = tailQuantile(len(lat))
	st.TailMs = quantile(lat, st.TailQ)
	for _, l := range lat {
		if l > st.TailMs {
			st.BeyondTail++
		}
	}
	st.QuantilesMs = [4]float64{quantile(lat, 0.9), quantile(lat, 0.95), quantile(lat, 0.99), quantile(lat, 1)}
	st.LateP99Ms = quantile(late, 0.99)
	st.LateMaxMs = quantile(late, 1)
	// Achieved rate: requests sent over the time it took to send them. The
	// schedule counts as kept when the generator sent at least 90% of the
	// scheduled rate and fell behind it by less than the latency limit at
	// the 99th percentile.
	st.AchievedRPS = float64(len(p.samples)) / lastSend.Seconds()
	scheduled := float64(len(p.samples)) / p.dur.Seconds()
	st.Valid = st.LateP99Ms < ms(latencyLimit) && st.AchievedRPS >= 0.9*scheduled
	return st
}

// reportPhases sets the latency metrics of a low and a high phase, the
// goodput of the high one and the answered fraction over both, and the
// generator's validity figures.
func reportPhases(r *report, low, high *phase) {
	ls, hs := low.stats(), high.stats()
	r.set("p25_ms.low", "ms", ls.P25Ms)
	r.set("p25_ms.high", "ms", hs.P25Ms)
	r.set("p50_ms.low", "ms", ls.P50Ms)
	r.set("p99_ms.low", "ms", ls.TailMs)
	r.set("p50_ms.high", "ms", hs.P50Ms)
	r.set("p99_ms.high", "ms", hs.TailMs)
	r.set("goodput_rps.high", "1/s", hs.GoodputRPS)
	sent := ls.Sent + hs.Sent
	r.set("ok_frac", "ratio", float64(ls.Answered+hs.Answered)/float64(max(sent, 1)))
	for _, st := range []phaseStats{ls, hs} {
		r.set("loadgen.achieved_rps."+st.Name, "1/s", st.AchievedRPS)
		r.set("loadgen.late_ms.p99."+st.Name, "ms", st.LateP99Ms)
		r.set("loadgen.late_ms.max."+st.Name, "ms", st.LateMaxMs)
		r.attempted += st.Sent
		r.failed += st.Wrong + st.Refused
		r.check(st.Wrong == 0, "%s phase: %d of %d answers differ from the reference", st.Name, st.Wrong, st.Sent)
	}
	r.detail["phases"] = []phaseStats{ls, hs}
	r.detail["valid"] = ls.Valid && hs.Valid
}
