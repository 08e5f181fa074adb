package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"cricket/internal/cricket"
	"cricket/internal/cuda"
	"cricket/internal/serve"
)

// Shape of the serve-decode workload. The rate is about half of what
// a 4-slot engine on two Ps kept up with (some 330 req/s) when the
// benchmark was written. On the one P the benchmark runs on (see
// main) the engine then completed up to about 490 req/s before it
// shed, so at this rate it is a third busy: requests queue behind a
// round now and then without the engine saturating.
const (
	serveRate      = 150.0 // Poisson arrivals per second
	serveSlots     = 4
	serveBatch     = 32 // Session BATCH_EXEC queue depth
	servePromptMin = 32
	servePromptMax = 255
	serveTokMin    = 16
	serveTokMax    = 127
	serveWordsDef  = 4096 // serve.Config default WeightWords
)

// Latency-class budgets of the serving engine (the datacenter
// benchmark's SLOBudget). The run reports how many requests missed
// them, and flags a run whose generator lagged by a tenth of the TTFT
// budget, since that lag alone could push requests over it.
const (
	ttftLimit = 250 * time.Millisecond
	itlLimit  = 100 * time.Millisecond
)

// serveReq is one generated request and what came back for it.
type serveReq struct {
	due    time.Duration // offset of its arrival from the window start
	prompt []byte
	maxTok int
	class  serve.Class
	onTok  func(uint32)

	sent   time.Duration
	tokAt  []time.Duration // OnToken times, offset from the window start
	toks   []uint32
	n      int
	resp   serve.Response
	err    error
	failed bool
}

// serveDecode is the only workload through cricket.Session, the
// BATCH_EXEC queue, the decode kernels and the serve scheduler: an
// open Poisson loop of generation requests against one serve.Engine.
type serveDecode struct {
	seed     int64
	cfgSeed  int64
	k        checker
	arrivals *rand.Rand // draws the requests; continues across windows
	weights  []uint32
	reqs     []serveReq

	sess  *cricket.Session
	eng   *serve.Engine
	alarm *alarm
}

func newServeDecode(seed int64, k checker) *serveDecode {
	rng := rand.New(rand.NewSource(seed))
	sd := &serveDecode{seed: seed, k: k, cfgSeed: rng.Int63() | 1, arrivals: rand.New(rand.NewSource(seed + 1))}
	// The weights serve.New uploads, derived from Config.Seed the way
	// the engine derives them; the checker recomputes every token
	// from them independently of the engine's own verification.
	wrng := rand.New(rand.NewSource(sd.cfgSeed))
	wb := make([]byte, serveWordsDef*4)
	wrng.Read(wb)
	sd.weights = make([]uint32, serveWordsDef)
	for i := range sd.weights {
		sd.weights[i] = binary.LittleEndian.Uint32(wb[i*4:])
	}
	return sd
}

// schedule generates the requests arriving within the next window of
// length d.
func (sd *serveDecode) schedule(d time.Duration) {
	rng := sd.arrivals
	sd.reqs = sd.reqs[:0]
	var t time.Duration
	for i := 0; ; i++ {
		t += time.Duration(rng.ExpFloat64() / serveRate * float64(time.Second))
		if t >= d {
			break
		}
		r := serveReq{
			due:    t,
			prompt: seededBytes(rng, servePromptMin+rng.Intn(servePromptMax-servePromptMin+1)),
			maxTok: serveTokMin + rng.Intn(serveTokMax-serveTokMin+1),
			class:  serve.Latency,
		}
		if i%3 == 2 {
			r.class = serve.Batch
		}
		sd.reqs = append(sd.reqs, r)
	}
	for i := range sd.reqs {
		r := &sd.reqs[i]
		r.tokAt = make([]time.Duration, r.maxTok)
		r.toks = make([]uint32, r.maxTok)
	}
}

func (sd *serveDecode) setup(s *stack) error {
	opts := s.options()
	opts.Batch = serveBatch
	sess, err := cricket.NewSession(cricket.SessionOptions{Options: opts, Redial: s.dial, Seed: sd.seed})
	if err != nil {
		return err
	}
	sd.sess = sess
	if sd.alarm, err = newAlarm(); err != nil {
		return err
	}
	sd.eng, err = serve.New(sess, serve.Config{Slots: serveSlots, Seed: sd.cfgSeed})
	return err
}

type ticket struct {
	i int
	t *serve.Ticket
}

func (sd *serveDecode) run(d time.Duration, maxOps int, w *window) {
	sd.schedule(d)
	reqs := sd.reqs
	if maxOps > 0 && len(reqs) > maxOps {
		reqs = reqs[:maxOps]
	}
	var start time.Time
	for i := range reqs {
		r := &reqs[i]
		r.onTok = func(tok uint32) {
			if r.n < len(r.toks) {
				r.tokAt[r.n] = time.Since(start)
				r.toks[r.n] = tok
			}
			r.n++
		}
	}
	st0 := sd.eng.Stats()
	waits := make(chan ticket, len(reqs)) // one send per request
	waited := make(chan struct{})
	go func() {
		defer close(waited)
		for tk := range waits {
			r := &reqs[tk.i]
			r.resp, r.err = tk.t.Wait()
		}
	}()
	start = time.Now()
	for i := range reqs {
		r := &reqs[i]
		if err := sd.alarm.sleepUntil(start.Add(r.due)); err != nil {
			w.mismatchf(fmt.Sprintf("generator alarm: %v", err))
		}
		r.sent = time.Since(start)
		t, err := sd.eng.Submit(serve.Request{
			ID: uint64(i), Prompt: r.prompt, MaxTokens: r.maxTok, Class: r.class, OnToken: r.onTok,
		})
		if err != nil {
			r.err = err
			continue
		}
		waits <- ticket{i, t}
	}
	close(waits)
	<-waited
	st1 := sd.eng.Stats()
	w.rounds = st1.Rounds - st0.Rounds
	w.launches = st1.Launches - st0.Launches
	sd.reqs = reqs
	sd.record(w)
}

// record turns the requests' timestamps into window samples. A
// failed request is a failedSample in every latency it would have
// contributed to.
func (sd *serveDecode) record(w *window) {
	type span struct{ from, to time.Duration }
	busy := make([]span, 0, len(sd.reqs))
	var end time.Duration
	for i := range sd.reqs {
		r := &sd.reqs[i]
		w.attempted++
		w.late = append(w.late, r.sent-r.due)
		if r.err != nil || r.n != r.maxTok {
			r.failed = true
			w.failed++
			w.note(r.err)
			w.calls = append(w.calls, failedSample)
			w.copies = append(w.copies, failedSample)
			w.ttft = append(w.ttft, failedSample)
			continue
		}
		last := r.tokAt[r.n-1]
		lat := last - r.due
		w.calls = append(w.calls, lat)
		w.copies = append(w.copies, lat)
		ttft := r.tokAt[0] - r.due
		w.ttft = append(w.ttft, ttft)
		missed := ttft > ttftLimit
		for j := 1; j < r.n; j++ {
			gap := r.tokAt[j] - r.tokAt[j-1]
			w.itl = append(w.itl, gap)
			missed = missed || gap > itlLimit
		}
		if missed {
			w.sloMissed++
		}
		w.htodBytes += int64(len(r.prompt))
		w.dtohBytes += int64(4 * r.n)
		w.htodTime += lat
		w.dtohTime += lat
		w.ops += r.n
		busy = append(busy, span{r.sent, last})
		if last > end {
			end = last
		}
	}
	sort.Slice(busy, func(i, j int) bool { return busy[i].from < busy[j].from })
	var cur span
	for i, s := range busy {
		switch {
		case i == 0:
			cur = s
		case s.from <= cur.to:
			if s.to > cur.to {
				cur.to = s.to
			}
		default:
			w.busy += cur.to - cur.from
			cur = s
		}
	}
	w.busy += cur.to - cur.from
	w.wall = end
}

// check recomputes every completed response on the host from the
// prompt and the weights, and compares tokens, digest and the token
// stream OnToken delivered.
func (sd *serveDecode) check(w *window) {
	for i := range sd.reqs {
		r := &sd.reqs[i]
		if r.failed {
			continue
		}
		state := cuda.PrefillRef(r.prompt, sd.weights)
		var digest uint64 = 14695981039346656037 // FNV-1a offset basis
		ok := len(r.resp.Tokens) == r.maxTok
		for step := 0; step < r.maxTok && ok; step++ {
			state = cuda.DecodeStepRef(state, step, sd.weights)
			tok := cuda.TokenOf(state)
			for s := 0; s < 32; s += 8 {
				digest ^= uint64(byte(tok >> s))
				digest *= 1099511628211
			}
			ok = r.resp.Tokens[step] == tok && r.toks[step] == tok
		}
		if !ok || !sd.k.equalU64(digest, r.resp.Digest) {
			w.mismatchf(fmt.Sprintf("request %d: tokens or digest differ from the host reference", i))
		}
	}
}

func (sd *serveDecode) close() {
	if sd.eng != nil {
		sd.eng.Close()
		sd.eng = nil
	}
	if sd.sess != nil {
		sd.sess.Close()
		sd.sess = nil
	}
	if sd.alarm != nil {
		sd.alarm.close()
		sd.alarm = nil
	}
}

// perSecond covers the token gaps of twice the offered rate.
func (sd *serveDecode) perSecond() int { return 2 * serveRate * (serveTokMax + serveTokMin) / 2 }

// part holds about 37 requests and 2500 token gaps. Shorter parts
// gave steadier medians: a host stall of tens of milliseconds then
// touches a smaller share of them.
func (sd *serveDecode) part() time.Duration { return 250 * time.Millisecond }
