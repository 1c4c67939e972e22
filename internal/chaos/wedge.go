package chaos

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"trajforge/internal/fsx"
	"trajforge/internal/fsx/faultfs"
	"trajforge/internal/resilience"
	"trajforge/internal/rssimap"
	"trajforge/internal/server"
)

// RunWedge drives the batch-upload workload into a provider whose
// filesystem is wedged (reversibly — writes fail, reads work) partway
// through, and asserts the full degrade/heal cycle in one scripted run:
//
//  1. The persistence breaker opens on the first failed append and the
//     service goes degraded: /v1/health answers 503 and uploads are shed
//     with 503 + Retry-After instead of being acked non-durably.
//  2. While the disk stays wedged, half-open probes fail and the breaker
//     re-opens — the service never flaps back to ready on hope alone.
//  3. After the disk heals, a probe compaction commits a snapshot of the
//     complete in-memory state (repairing any frames lost around the
//     wedge), the breaker closes, and the workload finishes with every
//     upload acknowledged durable.
//  4. A recovery pass with a clean filesystem finds every acknowledged
//     verdict and bit-identical features — zero acked-verdict loss.
func RunWedge(opts Options) (*Report, error) {
	logf, err := opts.logger()
	if err != nil {
		return nil, err
	}
	f, err := newUploadScenario(opts.Seed, nil)
	if err != nil {
		return nil, err
	}

	const cooldown = 40 * time.Millisecond
	ffs := faultfs.New(fsx.OS, faultfs.Options{})
	p, err := server.OpenPersistence(opts.Dir, server.PersistOptions{
		FS: ffs, SyncInterval: -1,
		Breaker: &resilience.BreakerConfig{Cooldown: cooldown},
	})
	if err != nil {
		return nil, err
	}
	store, err := rssimap.NewStore(rssimap.DefaultConfig(), f.bootstrap)
	if err != nil {
		return nil, err
	}
	svc, client, cleanup, err := f.newService(p, store)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	if err := p.Compact(); err != nil {
		return nil, fmt.Errorf("chaos: bootstrap snapshot: %w", err)
	}

	rep := &Report{}
	wedgeAt := len(f.uploads) / 3
	healAt := 2 * len(f.uploads) / 3

	// attempt sends upload i and accounts for the outcome. A 503 shed is
	// legal only while the wedge is up (allowShed): it must be retryable
	// with a Retry-After hint, and the caller replays it after the heal so
	// the verdict ledger stays exactly the reference sequence.
	attempt := func(i int, allowShed bool) (shed bool, err error) {
		if _, uerr := f.upload(client, i); uerr != nil {
			var se *server.StatusError
			if !errors.As(uerr, &se) || se.Code != http.StatusServiceUnavailable || !allowShed {
				return false, fmt.Errorf("chaos: %w", uerr)
			}
			if !se.Retryable() || se.RetryAfter <= 0 {
				return false, fmt.Errorf("chaos: upload %d shed without retry hint: %v", i, se)
			}
			rep.Shed++
			return true, nil
		}
		if p.Flush() != nil {
			// Acked at the HTTP layer before the breaker tripped, but the
			// durability barrier refused: recorded in memory, repaired by
			// the heal compaction.
			rep.WedgedAccepted++
		}
		return false, nil
	}

	// Sheds are contiguous (from breaker trip to heal) and nothing else is
	// recorded while degraded, so replaying them in order before resuming
	// reproduces the reference sequence exactly.
	var pending []int
	for i := 0; i < len(f.uploads); i++ {
		if i == wedgeAt {
			logf("chaos: wedging filesystem before upload %d", i)
			ffs.Wedge()
		}
		if i == healAt {
			// Keep the wedge up across at least one cooldown so a half-open
			// probe fails against the dead disk and re-opens the breaker,
			// then heal and wait for the probe compaction to close it.
			if err := awaitDegraded(client.client, cooldown); err != nil {
				return rep, err
			}
			time.Sleep(2 * cooldown)
			logf("chaos: healing filesystem before upload %d", i)
			ffs.Heal()
			if err := awaitReady(client.client, cooldown); err != nil {
				return rep, err
			}
			for _, j := range pending {
				if shed, err := attempt(j, false); err != nil || shed {
					return rep, fmt.Errorf("chaos: replay of shed upload %d failed: %w", j, err)
				}
			}
			pending = nil
		}
		shed, err := attempt(i, i >= wedgeAt && i < healAt)
		if err != nil {
			return rep, err
		}
		if shed {
			pending = append(pending, i)
		}
	}

	// Every shed upload was replayed to a verdict above, so the ledger
	// holds the full reference sequence and one final barrier acks it all.
	if err := p.Flush(); err != nil {
		return rep, fmt.Errorf("chaos: final barrier failed after heal: %w", err)
	}

	st := svc.Stats()
	ps := st.Persistence
	if ps == nil || ps.Breaker == nil {
		return rep, fmt.Errorf("chaos: breaker stats missing")
	}
	rep.Opens, rep.Closes = ps.Breaker.Opens, ps.Breaker.Closes
	if rep.Opens < 1 || rep.Closes < 1 || ps.Breaker.State != "closed" {
		return rep, fmt.Errorf("chaos: breaker never cycled: %+v", ps.Breaker)
	}
	if ps.Degraded || ps.UnhealedErrors != 0 {
		return rep, fmt.Errorf("chaos: persistence still degraded after heal: %+v", ps)
	}
	if rep.Shed == 0 {
		return rep, fmt.Errorf("chaos: wedge produced no degraded sheds")
	}
	cleanup() // final snapshot on the healed FS before the recovery pass

	// Recovery with a clean filesystem: all acknowledged verdicts present,
	// features bit-identical to the reference run.
	state, err := f.recover(opts.Dir, len(f.uploads), rep)
	if err != nil {
		return rep, fmt.Errorf("chaos: wedge recovery: %w", err)
	}
	if rep.FullRecoveries != 1 {
		return rep, fmt.Errorf("chaos: wedge recovery incomplete: accepted %d, want %d",
			state.Accepted, len(f.features)-1)
	}
	logf("chaos: wedge cycle complete: %d acked, %d accepted-unflushed, %d shed, breaker %d opens / %d closes",
		rep.MaxAcked, rep.WedgedAccepted, rep.Shed, rep.Opens, rep.Closes)
	return rep, nil
}

// awaitDegraded polls /v1/health until it reports degraded (the breaker
// tripped on the wedged disk).
func awaitDegraded(c *server.Client, cooldown time.Duration) error {
	deadline := time.Now().Add(100 * cooldown)
	for time.Now().Before(deadline) {
		h, err := c.FetchHealth()
		if err != nil {
			return fmt.Errorf("chaos: health poll: %w", err)
		}
		if h.Degraded {
			return nil
		}
		time.Sleep(cooldown / 8)
	}
	return fmt.Errorf("chaos: health never reported degraded")
}

// awaitReady polls /v1/health until the breaker has closed again.
func awaitReady(c *server.Client, cooldown time.Duration) error {
	deadline := time.Now().Add(100 * cooldown)
	for time.Now().Before(deadline) {
		h, err := c.FetchHealth()
		if err != nil {
			return fmt.Errorf("chaos: health poll: %w", err)
		}
		if h.Ready && !h.Degraded {
			return nil
		}
		time.Sleep(cooldown / 8)
	}
	return fmt.Errorf("chaos: health never recovered after heal")
}
