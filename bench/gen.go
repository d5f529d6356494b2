package main

import (
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// tally counts requests by outcome. A request is ok when its status is 200
// and every row it carried was answered as the reference says.
type tally struct {
	sent, ok, transport, badStatus, mismatched int64
}

func (t *tally) add(o tally) {
	t.sent += o.sent
	t.ok += o.ok
	t.transport += o.transport
	t.badStatus += o.badStatus
	t.mismatched += o.mismatched
}

func (t tally) failed() int64 { return t.sent - t.ok }

// errStats accumulates localization error in metres over answered rows.
type errStats struct {
	cleanSum, attackedSum float64
	clean, attacked       int64
	worst                 float64
}

func (e *errStats) add(o errStats) {
	e.cleanSum += o.cleanSum
	e.attackedSum += o.attackedSum
	e.clean += o.clean
	e.attacked += o.attacked
	e.worst = max(e.worst, o.worst)
}

// checker verifies the answers arriving on one connection.
type checker struct {
	s       *system
	version [numFloors]uint64 // last version seen per floor on this connection
	answers []answer          // rows of the last response observed
	tally
	errs errStats
}

func newChecker(s *system) *checker {
	return &checker{s: s, answers: make([]answer, 0, batchRows)}
}

// observe records one exchange and reports whether it was ok.
func (ck *checker) observe(r *request, status int, body []byte, err error) bool {
	ck.sent++
	if err != nil {
		ck.transport++
		return false
	}
	if status != 200 {
		ck.badStatus++
		return false
	}
	if !ck.check(r, status, body) {
		ck.mismatched++
		return false
	}
	ck.ok++
	return true
}

// check compares a response with the reference answers of its request: rows
// in order, no row errors, floor and reference point as computed at set-up,
// versions never decreasing.
func (ck *checker) check(r *request, status int, body []byte) bool {
	if status != 200 {
		return false
	}
	var err error
	ck.answers, err = scanAnswers(ck.answers[:0], body, ck.s.wl.batch)
	if err != nil || len(ck.answers) != len(r.rows) {
		return false
	}
	good := true
	for j, a := range ck.answers {
		q := &ck.s.queries[r.rows[j]]
		if !a.ok || a.floor != q.wantFloor || a.version < ck.version[q.wantFloor] {
			good = false
			continue
		}
		if a.rp != q.wantRP {
			good = false
		}
		ck.version[q.wantFloor] = a.version
	}
	return good
}

// scoreErrors adds the metric error of the last observed (ok) response.
func (ck *checker) scoreErrors(r *request) {
	for j, a := range ck.answers {
		q := &ck.s.queries[r.rows[j]]
		d := ck.s.data[q.floor].ErrorMeters(a.rp, q.rp)
		if q.attacked {
			ck.errs.attackedSum += d
			ck.errs.attacked++
		} else {
			ck.errs.cleanSum += d
			ck.errs.clean++
		}
		ck.errs.worst = max(ck.errs.worst, d)
	}
}

// spinWindow is how close to a due time the generator sleeps; the rest it
// spins. time.Sleep and time.Timer wake through the netpoller's millisecond
// epoll timeout and overshoot by about 1 ms on this class of machine, which
// would be charged to the system as latency; nanosleep(2) does not.
const spinWindow = 300 * time.Microsecond

// waitUntil returns at due, or at once when due has passed.
func waitUntil(due time.Time) {
	for {
		d := time.Until(due)
		if d <= 0 {
			return
		}
		if d > spinWindow {
			ts := syscall.NsecToTimespec(int64(d - spinWindow))
			// EINTR only shortens the sleep; the loop reads the clock again.
			_ = syscall.Nanosleep(&ts, nil)
		}
	}
}

// arrival is one scheduled open-loop request of one connection.
type arrival struct {
	due time.Duration // from the start of the phase
	req int           // index into system.requests
}

// buildSchedule draws the open-loop plan: one seeded permutation of the
// requests dealt round-robin to the reader connections, each of which sends
// as an independent Poisson process of rate/readers. The same arguments give
// the same plan.
func buildSchedule(seed int64, readers int, rate float64, phase time.Duration, requests int) [][]arrival {
	order := rand.New(rand.NewSource(seed + 2)).Perm(requests)
	plan := make([][]arrival, readers)
	for c := range plan {
		rng := rand.New(rand.NewSource(seed*7919 + int64(c) + 3))
		perConn := rate / float64(readers)
		var at float64 // seconds
		for k := c; ; k += readers {
			at += rng.ExpFloat64() / perConn
			due := time.Duration(at * float64(time.Second))
			if due >= phase {
				break
			}
			plan[c] = append(plan[c], arrival{due: due, req: order[k%requests]})
		}
	}
	return plan
}

// openResult is what the open-loop phase measured.
type openResult struct {
	latUs  []float64       // ok requests: microseconds from the due time to the verified answer
	due    []time.Duration // ok requests: the due time, from the start of the phase
	lateUs []float64       // every request: how long after it could go out it went out
	tally
	errs errStats
}

// overrun is how far past its end the open-loop phase may run to drain a
// backlog before the remaining arrivals are written off as failed.
const overrun = 5 * time.Second

// openLoop plays the plan, one sender goroutine per reader connection. A
// request goes out at its due time or, when the connection is still waiting
// for the previous answer, as soon as that arrives; either way its latency
// counts from the due time, so a stall is charged to everything queued
// behind it.
func (s *system) openLoop(plan [][]arrival, phase time.Duration) openResult {
	results := make([]openResult, len(plan))
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for c := range plan {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[c] = s.playOpen(s.conns[c], plan[c], start, phase)
		}()
	}
	wg.Wait()
	var all openResult
	for _, r := range results {
		all.latUs = append(all.latUs, r.latUs...)
		all.due = append(all.due, r.due...)
		all.lateUs = append(all.lateUs, r.lateUs...)
		all.tally.add(r.tally)
		all.errs.add(r.errs)
	}
	return all
}

func (s *system) playOpen(rc *rawConn, plan []arrival, start time.Time, phase time.Duration) openResult {
	res := openResult{
		latUs:  make([]float64, 0, len(plan)),
		due:    make([]time.Duration, 0, len(plan)),
		lateUs: make([]float64, 0, len(plan)),
	}
	ck := newChecker(s)
	free := start // when the connection last became free
	for i, a := range plan {
		due := start.Add(a.due)
		waitUntil(due)
		sent := time.Now()
		if sent.Sub(start) > phase+overrun {
			ck.sent += int64(len(plan) - i)
			break
		}
		r := &s.requests[a.req]
		status, body, err := rc.roundTrip(r.wire)
		done := time.Now()
		could := due
		if free.After(could) {
			could = free
		}
		res.lateUs = append(res.lateUs, float64(sent.Sub(could))/float64(time.Microsecond))
		free = done
		if ck.observe(r, status, body, err) {
			res.latUs = append(res.latUs, float64(done.Sub(due))/float64(time.Microsecond))
			res.due = append(res.due, a.due)
			ck.scoreErrors(r)
		}
	}
	res.tally, res.errs = ck.tally, ck.errs
	return res
}

// closedResult is what the closed-loop phase measured.
type closedResult struct {
	rows    int64     // answered-and-verified fingerprints
	perS    []float64 // the same per second, slice by slice of the phase
	elapsed time.Duration
	cpu     time.Duration
	mallocs uint64
	tally
}

// closedLoop runs every reader connection back-to-back for the phase and
// counts the verified fingerprints of each of its closedSlices equal slices
// (an answer counts where it arrives; the ones in flight when the phase ends
// count in rows only).
func (s *system) closedLoop(seed int64, phase time.Duration) closedResult {
	order := rand.New(rand.NewSource(seed + 4)).Perm(len(s.requests))
	results := make([]closedResult, s.wl.readers)
	width := phase / closedSlices
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu := cpuTime()
	start := time.Now()
	end := start.Add(phase)
	var wg sync.WaitGroup
	for c := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ck := newChecker(s)
			res := &results[c]
			res.perS = make([]float64, closedSlices)
			for k := c; time.Now().Before(end); k += s.wl.readers {
				r := &s.requests[order[k%len(order)]]
				status, body, err := s.conns[c].roundTrip(r.wire)
				if ck.observe(r, status, body, err) {
					res.rows += int64(len(r.rows))
					if at := int(time.Since(start) / width); at < closedSlices {
						res.perS[at] += float64(len(r.rows)) / width.Seconds()
					}
				}
			}
			res.tally = ck.tally
		}()
	}
	wg.Wait()
	all := closedResult{perS: make([]float64, closedSlices), elapsed: time.Since(start), cpu: cpuTime() - cpu}
	runtime.ReadMemStats(&after)
	all.mallocs = after.Mallocs - before.Mallocs
	for _, r := range results {
		all.rows += r.rows
		for k, v := range r.perS {
			all.perS[k] += v
		}
		all.tally.add(r.tally)
	}
	return all
}
