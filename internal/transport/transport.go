// Package transport provides the communication substrate between monitor
// processes: reliable, FIFO, unbounded-delay message channels — exactly the
// channel model the paper assumes (§2.1), and the stand-in for the WiFi
// network connecting the paper's iOS devices.
//
// Two implementations are provided: an in-memory network with optional
// normally-distributed latency (deterministic per-pair FIFO, used by tests,
// benchmarks and the experiment harness), and a TCP loopback network built
// on the net package (used by the tcp example to run monitors over real
// sockets).
package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Message is an opaque monitor-to-monitor payload.
type Message struct {
	From, To int
	Payload  []byte
}

// Endpoint is one monitor's attachment to the network.
type Endpoint interface {
	// ID returns the endpoint's process index.
	ID() int
	// Send enqueues a payload for delivery to the peer endpoint. It never
	// blocks on slow receivers (channels are unbounded) and returns an
	// error only if the network is closed or the peer does not exist.
	Send(to int, payload []byte) error
	// Inbox delivers incoming messages in per-sender FIFO order. The
	// channel is closed when the network shuts down.
	Inbox() <-chan Message
}

// Network is a closed group of n endpoints.
type Network interface {
	Endpoint(i int) Endpoint
	N() int
	// Close shuts the network down and closes all inboxes. Messages still
	// in flight when Close begins are delivered on a best-effort basis:
	// endpoints nobody drains any more (their monitor exited, normally or
	// on cancellation) may drop them — Close never blocks on a dead reader.
	Close() error
	Stats() *Stats
}

// Stats accumulates message counters; all methods are safe for concurrent
// use.
type Stats struct {
	messages atomic.Int64
	bytes    atomic.Int64
}

func (s *Stats) record(n int) {
	s.messages.Add(1)
	s.bytes.Add(int64(n))
}

// Messages returns the total number of messages sent.
func (s *Stats) Messages() int64 { return s.messages.Load() }

// Bytes returns the total payload bytes sent.
func (s *Stats) Bytes() int64 { return s.bytes.Load() }

// errClosed is returned by Send after Close.
var errClosed = fmt.Errorf("transport: network closed")

// unboundedQueue is a FIFO of messages with non-blocking enqueue, used to
// guarantee that monitors can never deadlock on a full channel: the paper's
// channel model has unbounded capacity. It is the in-memory network's only
// unbounded buffer; the inboxes its drainers feed are small and fixed.
type unboundedQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []Message
	closed bool
}

func newUnboundedQueue() *unboundedQueue {
	q := &unboundedQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *unboundedQueue) push(m Message) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.items = append(q.items, m)
	q.cond.Signal()
	return true
}

// pop blocks until an item is available or the queue is closed and drained.
func (q *unboundedQueue) pop() (Message, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return Message{}, false
	}
	m := q.items[0]
	q.items = q.items[1:]
	return m, true
}

func (q *unboundedQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
