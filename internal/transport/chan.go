package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ChanOption configures a ChanNetwork.
type ChanOption func(*chanConfig)

type chanConfig struct {
	latencyMu, latencySigma time.Duration
	seed                    int64
}

// WithLatency injects a normally distributed delivery delay on every
// ordered pair, preserving per-pair FIFO order. A zero mu disables delays.
func WithLatency(mu, sigma time.Duration, seed int64) ChanOption {
	return func(c *chanConfig) {
		c.latencyMu, c.latencySigma, c.seed = mu, sigma, seed
	}
}

// ChanNetwork is the in-memory Network used by tests, benchmarks and the
// experiment harness.
//
// Queue topology is sharded by configuration. Without latency, each
// *destination* has one FIFO queue drained by one goroutine (n drainers
// total): every sender enqueues from its monitor's single run-loop goroutine
// in program order, and a FIFO queue preserves each sender's subsequence, so
// per-pair FIFO holds while cross-pair interleaving stays arbitrary — the
// weakest ordering the paper's algorithm must tolerate. With latency, every
// ordered *pair* keeps its own queue and drainer (n·(n−1) of them): delays
// are drawn per pair from a deterministic seed, and sleeping in a shared
// destination drainer would head-of-line-block the other senders.
type ChanNetwork struct {
	n   int
	eps []*chanEndpoint
	// destQueues[to] shards by destination (no-latency fast path); queues
	// holds the per-pair topology (latency mode). Exactly one is non-nil.
	destQueues []*unboundedQueue
	queues     map[[2]int]*unboundedQueue
	stats      Stats
	wg         sync.WaitGroup
	mu         sync.Mutex
	closed     bool
	// stop is closed at the start of Close so drain goroutines blocked on a
	// full inbox of an already-departed monitor (e.g. after a session's
	// context was cancelled) unblock instead of wedging Close forever.
	stop chan struct{}
}

// inboxCap is the capacity of every ChanNetwork inbox. The unbounded
// per-destination (or per-pair) queues upstream are what give Send the
// paper's unbounded channels; the inbox only decouples a drainer from its
// receiver, so a small fixed size — at least twice the monitor run loop's
// pumpBatch drain (internal/core) — suffices and keeps inbox memory out of
// session set-up.
const inboxCap = 64

type chanEndpoint struct {
	id    int
	net   *ChanNetwork
	inbox chan Message
}

// NewChanNetwork creates an in-memory network of n endpoints.
func NewChanNetwork(n int, opts ...ChanOption) *ChanNetwork {
	cfg := chanConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	nw := &ChanNetwork{n: n, stop: make(chan struct{})}
	for i := 0; i < n; i++ {
		nw.eps = append(nw.eps, &chanEndpoint{id: i, net: nw, inbox: make(chan Message, inboxCap)})
	}
	if cfg.latencyMu <= 0 {
		nw.destQueues = make([]*unboundedQueue, n)
		for to := 0; to < n; to++ {
			q := newUnboundedQueue()
			nw.destQueues[to] = q
			nw.wg.Add(1)
			go nw.drain(q, nw.eps[to].inbox, cfg, int64(to))
		}
		return nw
	}
	nw.queues = map[[2]int]*unboundedQueue{}
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from == to {
				continue
			}
			q := newUnboundedQueue()
			nw.queues[[2]int{from, to}] = q
			nw.wg.Add(1)
			go nw.drain(q, nw.eps[to].inbox, cfg, int64(from*n+to))
		}
	}
	return nw
}

// drain forwards one pair's queue into the destination inbox, applying the
// configured latency.
func (nw *ChanNetwork) drain(q *unboundedQueue, inbox chan<- Message, cfg chanConfig, salt int64) {
	defer nw.wg.Done()
	var rng *rand.Rand
	if cfg.latencyMu > 0 {
		rng = rand.New(rand.NewSource(cfg.seed ^ salt))
	}
	for {
		m, ok := q.pop()
		if !ok {
			return
		}
		if rng != nil {
			d := time.Duration(rng.NormFloat64()*float64(cfg.latencySigma)) + cfg.latencyMu
			if d > 0 {
				time.Sleep(d)
			}
		}
		select {
		case inbox <- m:
			continue
		default:
		}
		select {
		case inbox <- m:
		case <-nw.stop:
			return
		}
	}
}

// Endpoint returns endpoint i.
func (nw *ChanNetwork) Endpoint(i int) Endpoint { return nw.eps[i] }

// N returns the number of endpoints.
func (nw *ChanNetwork) N() int { return nw.n }

// Stats returns the network counters.
func (nw *ChanNetwork) Stats() *Stats { return &nw.stats }

// Close shuts the network down and closes every inbox. Messages still in
// flight when Close begins may be dropped: endpoints whose monitors have
// already exited (normal termination, or a cancelled session) no longer
// drain their inboxes, and Close must not block on them.
func (nw *ChanNetwork) Close() error {
	nw.mu.Lock()
	if nw.closed {
		nw.mu.Unlock()
		return nil
	}
	nw.closed = true
	nw.mu.Unlock()
	for _, q := range nw.queues {
		q.close()
	}
	for _, q := range nw.destQueues {
		q.close()
	}
	close(nw.stop)
	nw.wg.Wait()
	for _, ep := range nw.eps {
		close(ep.inbox)
	}
	return nil
}

func (e *chanEndpoint) ID() int { return e.id }

func (e *chanEndpoint) Inbox() <-chan Message { return e.inbox }

func (e *chanEndpoint) Send(to int, payload []byte) error {
	if to < 0 || to >= e.net.n {
		return fmt.Errorf("transport: endpoint %d does not exist", to)
	}
	if to == e.id {
		return fmt.Errorf("transport: endpoint %d sending to itself", to)
	}
	e.net.mu.Lock()
	closed := e.net.closed
	e.net.mu.Unlock()
	if closed {
		return errClosed
	}
	var q *unboundedQueue
	if e.net.destQueues != nil {
		q = e.net.destQueues[to]
	} else {
		q = e.net.queues[[2]int{e.id, to}]
	}
	msg := Message{From: e.id, To: to, Payload: payload}
	if !q.push(msg) {
		return errClosed
	}
	e.net.stats.record(len(payload))
	return nil
}
