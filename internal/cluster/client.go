package cluster

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"trajforge/internal/resilience"
)

// nodeClient is the coordinator's connection bundle for one node: an
// ordered ingest stream (one conn, serialized by sendMu, fed by an outbox
// appended under the coordinator lock so batch order equals canonical
// order) and a small pool of query connections.
type nodeClient struct {
	id      string
	addr    string
	timeout time.Duration
	// retry is the transient-transport-error policy (dial refused, EOF,
	// reset). Every shard request is idempotent — adds by the per-tile seq
	// gate, assignment pushes and drops by epoch, reads by nature — so
	// re-sending a request whose response was lost is safe.
	retry resilience.RetryPolicy
	// retried counts retried transport attempts, shared across the
	// store's clients for /v1/stats.
	retried *atomic.Uint64

	// sendMu serializes the ingest stream; the conn below it is only
	// touched with sendMu held.
	sendMu sync.Mutex
	ingest net.Conn

	mu       sync.Mutex
	outbox   []*AddReq
	unsynced bool
	lastErr  error

	poolMu sync.Mutex
	pool   []net.Conn
}

const queryPoolSize = 4

// flushRetries bounds wrongEpoch re-pushes per batch before giving up.
const flushRetries = 8

func (nc *nodeClient) dial() (net.Conn, error) {
	d := net.Dialer{Timeout: nc.timeout}
	return d.Dial("tcp", nc.addr)
}

// transportDeadline resolves an absolute deadline: the caller's if set,
// otherwise now + the client timeout.
func (nc *nodeClient) transportDeadline(deadline time.Time) time.Time {
	if deadline.IsZero() {
		return time.Now().Add(nc.timeout)
	}
	return deadline
}

// call runs one request/response exchange on a pooled query connection,
// retrying transient transport errors under the client's jittered policy.
func (nc *nodeClient) call(msg any, deadline time.Time) (any, error) {
	return nc.withRetry(deadline, func() (any, error) {
		return nc.callOnce(msg, deadline)
	})
}

func (nc *nodeClient) callOnce(msg any, deadline time.Time) (any, error) {
	conn, err := nc.acquire()
	if err != nil {
		return nil, err
	}
	dl := nc.transportDeadline(deadline)
	if err := writeMsg(conn, msg, dl); err != nil {
		conn.Close()
		return nil, err
	}
	resp, err := readMsg(conn, dl)
	if err != nil {
		conn.Close()
		return nil, err
	}
	nc.release(conn)
	return resp, nil
}

// withRetry runs fn until it succeeds, the policy is exhausted, or the
// caller's deadline passed. Only transport errors reach fn's error return
// (typed refusals come back as responses), and every shard request is
// idempotent, so a blind re-send after a node restart is safe — this is
// what keeps a mid-batch node bounce invisible to upload clients.
func (nc *nodeClient) withRetry(deadline time.Time, fn func() (any, error)) (any, error) {
	r := resilience.NewRetrier(nc.retry)
	for {
		resp, err := fn()
		if err == nil {
			return resp, nil
		}
		d, ok := r.Next(0)
		if !ok {
			return nil, err
		}
		if !deadline.IsZero() && time.Now().Add(d).After(deadline) {
			return nil, err
		}
		if nc.retried != nil {
			nc.retried.Add(1)
		}
		time.Sleep(d)
	}
}

func (nc *nodeClient) acquire() (net.Conn, error) {
	nc.poolMu.Lock()
	if n := len(nc.pool); n > 0 {
		conn := nc.pool[n-1]
		nc.pool = nc.pool[:n-1]
		nc.poolMu.Unlock()
		return conn, nil
	}
	nc.poolMu.Unlock()
	return nc.dial()
}

func (nc *nodeClient) release(conn net.Conn) {
	nc.poolMu.Lock()
	if len(nc.pool) < queryPoolSize {
		nc.pool = append(nc.pool, conn)
		nc.poolMu.Unlock()
		return
	}
	nc.poolMu.Unlock()
	conn.Close()
}

// callLocked runs one exchange on the ingest conn, retrying transient
// transport errors (reconnecting between attempts). sendMu must be held.
func (nc *nodeClient) callLocked(msg any, deadline time.Time) (any, error) {
	return nc.withRetry(deadline, func() (any, error) {
		return nc.callLockedOnce(msg, deadline)
	})
}

func (nc *nodeClient) callLockedOnce(msg any, deadline time.Time) (any, error) {
	if nc.ingest == nil {
		conn, err := nc.dial()
		if err != nil {
			return nil, err
		}
		nc.ingest = conn
	}
	dl := nc.transportDeadline(deadline)
	if err := writeMsg(nc.ingest, msg, dl); err != nil {
		nc.ingest.Close()
		nc.ingest = nil
		return nil, err
	}
	resp, err := readMsg(nc.ingest, dl)
	if err != nil {
		nc.ingest.Close()
		nc.ingest = nil
		return nil, err
	}
	return resp, nil
}

// ackCallLocked is callLocked for requests answered by an Ack.
func (nc *nodeClient) ackCallLocked(msg any) (*Ack, error) {
	resp, err := nc.callLocked(msg, time.Time{})
	if err != nil {
		return nil, err
	}
	ack, ok := resp.(*Ack)
	if !ok {
		return nil, fmt.Errorf("%w: %T where an ack was expected", ErrKind, resp)
	}
	return ack, nil
}

// pushAssignLocked installs an assignment on the node. sendMu must be held.
func (nc *nodeClient) pushAssignLocked(assign Assignment) error {
	ack, err := nc.ackCallLocked(&AssignReq{Assign: assign})
	if err != nil {
		return err
	}
	switch ack.Status {
	case statusOK:
		return nil
	case statusWrongEpoch:
		// The node journaled a higher epoch than ours: a newer coordinator
		// exists. Fencing worked — stop driving this node.
		return fmt.Errorf("cluster: node %s fenced assignment push: node epoch %d > %d", nc.id, ack.Epoch, assign.Epoch)
	default:
		return fmt.Errorf("cluster: assign push to %s failed: %s", nc.id, ack.Msg)
	}
}

// pushAssign is pushAssignLocked taking sendMu itself.
func (nc *nodeClient) pushAssign(assign Assignment) error {
	nc.sendMu.Lock()
	defer nc.sendMu.Unlock()
	return nc.pushAssignLocked(assign)
}

// enqueue appends one ordered batch. Called under the coordinator lock so
// outbox order equals canonical-log order.
func (nc *nodeClient) enqueue(req *AddReq) {
	nc.mu.Lock()
	nc.outbox = append(nc.outbox, req)
	nc.mu.Unlock()
}

// flush drains the outbox in order over the ingest stream, healing epoch
// skew in place: a wrongEpoch ack re-pushes the coordinator's current
// assignment and re-stamps the batch. Any wire failure leaves the node
// unsynced — the canonical log replays the tail during Resync, so a lost
// batch is a retransmit, never data loss.
func (nc *nodeClient) flush(s *Store) error {
	nc.sendMu.Lock()
	defer nc.sendMu.Unlock()
	for {
		nc.mu.Lock()
		if nc.unsynced {
			err := nc.lastErr
			nc.mu.Unlock()
			return err
		}
		if len(nc.outbox) == 0 {
			nc.mu.Unlock()
			return nil
		}
		req := nc.outbox[0]
		nc.mu.Unlock()

		sent := false
		for attempt := 0; attempt < flushRetries; attempt++ {
			ack, err := nc.ackCallLocked(req)
			if err != nil {
				return err
			}
			switch ack.Status {
			case statusOK:
				sent = true
			case statusWrongEpoch:
				s.mu.RLock()
				assign := s.assign.Clone()
				s.mu.RUnlock()
				if ack.Epoch > assign.Epoch {
					return fmt.Errorf("cluster: node %s fenced ingest: node epoch %d > %d", nc.id, ack.Epoch, assign.Epoch)
				}
				if err := nc.pushAssignLocked(assign); err != nil {
					return err
				}
				req.Epoch = assign.Epoch
				continue
			default:
				return fmt.Errorf("cluster: ingest to %s failed: status %d %s", nc.id, ack.Status, ack.Msg)
			}
			break
		}
		if !sent {
			return fmt.Errorf("cluster: ingest to %s exhausted epoch retries", nc.id)
		}
		nc.mu.Lock()
		nc.outbox = nc.outbox[1:]
		nc.mu.Unlock()
	}
}

// markUnsynced records a node failure: the outbox is discarded (Resync
// replays from the canonical log) and connections are torn down.
func (nc *nodeClient) markUnsynced(err error) {
	nc.mu.Lock()
	nc.unsynced = true
	if err != nil {
		nc.lastErr = err
	}
	nc.outbox = nil
	nc.mu.Unlock()
	nc.closeConns()
}

func (nc *nodeClient) isUnsynced() bool {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	return nc.unsynced
}

func (nc *nodeClient) clearUnsynced() {
	nc.mu.Lock()
	nc.unsynced = false
	nc.lastErr = nil
	nc.mu.Unlock()
}

func (nc *nodeClient) closeConns() {
	nc.poolMu.Lock()
	for _, c := range nc.pool {
		c.Close()
	}
	nc.pool = nil
	nc.poolMu.Unlock()
}

func (nc *nodeClient) close() {
	nc.sendMu.Lock()
	if nc.ingest != nil {
		nc.ingest.Close()
		nc.ingest = nil
	}
	nc.sendMu.Unlock()
	nc.closeConns()
}
