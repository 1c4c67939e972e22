package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"trajforge/internal/fsx"
	"trajforge/internal/fsx/faultfs"
)

func openTestLineage(t *testing.T, dir string, fs fsx.FS) *Lineage {
	t.Helper()
	l, err := OpenLineage(filepath.Join(dir, "t.wal"), filepath.Join(dir, "t.snap"), Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// recovered is what an owner rebuilds through Recover.
type recovered struct {
	snapshot string // payload handed to loadSnapshot, "" when none was
	frames   []string
}

func (rec *recovered) recover(l *Lineage) error {
	return l.Recover(func(payload []byte) error {
		rec.snapshot = string(payload)
		return nil
	}, func(typ byte, payload []byte) error {
		rec.frames = append(rec.frames, fmt.Sprintf("%d:%s", typ, payload))
		return nil
	})
}

func appendFrames(t *testing.T, l *Lineage, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if err := l.Append(1, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLineageRecover covers the generation table: the one copy of the
// switch the provider, the shard node and the coordinator used to carry
// each.
func TestLineageRecover(t *testing.T) {
	cases := []struct {
		name string
		// prepare leaves a directory behind through a first incarnation.
		prepare     func(t *testing.T, l *Lineage, dir string)
		want        recovered
		wantGen     uint64
		wantCorrupt bool
	}{
		{
			name: "no snapshot: replay the log",
			prepare: func(t *testing.T, l *Lineage, dir string) {
				appendFrames(t, l, "a", "b")
			},
			want: recovered{frames: []string{"1:a", "1:b"}}, wantGen: 1,
		},
		{
			name:    "fresh directory: nothing to recover",
			prepare: func(t *testing.T, l *Lineage, dir string) {},
			wantGen: 1,
		},
		{
			name: "snapshot ahead of log: load it, discard the stale log",
			prepare: func(t *testing.T, l *Lineage, dir string) {
				appendFrames(t, l, "a", "b")
				// The crash window: snapshot renamed into place, log not reset.
				if err := WriteSnapshot(filepath.Join(dir, "t.snap"), 2, []byte("S2")); err != nil {
					t.Fatal(err)
				}
			},
			want: recovered{snapshot: "S2"}, wantGen: 2,
		},
		{
			name: "snapshot behind a compacted log: refuse",
			prepare: func(t *testing.T, l *Lineage, dir string) {
				if err := l.Checkpoint([]byte("S2")); err != nil {
					t.Fatal(err)
				}
				if err := l.Reset(3); err != nil { // generation-3 snapshot lost
					t.Fatal(err)
				}
			},
			wantCorrupt: true,
		},
		{
			name: "no snapshot for a compacted log: refuse",
			prepare: func(t *testing.T, l *Lineage, dir string) {
				if err := l.Reset(2); err != nil {
					t.Fatal(err)
				}
			},
			wantCorrupt: true,
		},
		{
			name: "equal generations: snapshot, then the frames since",
			prepare: func(t *testing.T, l *Lineage, dir string) {
				appendFrames(t, l, "a", "b")
				if err := l.Checkpoint([]byte("S2")); err != nil {
					t.Fatal(err)
				}
				appendFrames(t, l, "c", "d")
			},
			want: recovered{snapshot: "S2", frames: []string{"1:c", "1:d"}}, wantGen: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			first := openTestLineage(t, dir, nil)
			tc.prepare(t, first, dir)
			if err := first.Close(); err != nil {
				t.Fatal(err)
			}

			l := openTestLineage(t, dir, nil)
			defer l.Close()
			var got recovered
			err := got.recover(l)
			if tc.wantCorrupt {
				if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "generation") {
					t.Fatalf("Recover = %v, want ErrCorrupt naming the generations", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("recovered %+v, want %+v", got, tc.want)
			}
			if gen := l.Generation(); gen != tc.wantGen {
				t.Fatalf("log generation %d after recovery, want %d", gen, tc.wantGen)
			}
			if frames, _ := l.Stats(); int(frames) != len(tc.want.frames) {
				t.Fatalf("log holds %d frames after recovery, want %d", frames, len(tc.want.frames))
			}
			// The recovered lineage is live: a frame appended now is what the
			// next incarnation replays on top of the same snapshot.
			appendFrames(t, l, "z")
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			again := openTestLineage(t, dir, nil)
			defer again.Close()
			var next recovered
			if err := next.recover(again); err != nil {
				t.Fatal(err)
			}
			want := recovered{snapshot: tc.want.snapshot, frames: append(append([]string(nil), tc.want.frames...), "1:z")}
			if !reflect.DeepEqual(next, want) {
				t.Fatalf("second recovery %+v, want %+v", next, want)
			}
		})
	}
}

// TestLineageRecoverErrors: a snapshot payload the owner rejects is
// corruption; a frame the owner rejects is the owner's error, untouched.
func TestLineageRecoverErrors(t *testing.T) {
	dir := t.TempDir()
	l := openTestLineage(t, dir, nil)
	defer l.Close()
	if err := l.Checkpoint([]byte("S2")); err != nil {
		t.Fatal(err)
	}
	appendFrames(t, l, "a")
	errOwner := errors.New("owner says no")
	noFrames := func(byte, []byte) error { t.Fatal("replayed past a rejected snapshot"); return nil }
	if err := l.Recover(func([]byte) error { return errOwner }, noFrames); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("rejected snapshot payload: %v, want ErrCorrupt", err)
	}
	err := l.Recover(func([]byte) error { return nil }, func(byte, []byte) error { return errOwner })
	if !errors.Is(err, errOwner) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("rejected frame: %v, want the owner's error as it is", err)
	}
}

// TestLineageCheckpointCrashPoints crashes Checkpoint at every filesystem
// mutation it makes. Whatever the crash point, the next incarnation
// recovers either the old log whole or the new snapshot — the payload
// accounts for the frames, so both are the same state — and the walk must
// pass through the window the protocol exists for: snapshot renamed, log
// not yet reset.
func TestLineageCheckpointCrashPoints(t *testing.T) {
	// run checkpoints two frames on a filesystem that crashes at its
	// failAt-th mutation, and returns the mutations Checkpoint made.
	run := func(t *testing.T, failAt int) (fs *faultfs.FS, dir string, before int, ops []faultfs.Op, err error) {
		dir = t.TempDir()
		fs = faultfs.New(fsx.OS, faultfs.Options{FailAt: failAt, Crash: true})
		l := openTestLineage(t, dir, fs)
		appendFrames(t, l, "a", "b")
		before = fs.OpCount()
		err = l.Checkpoint([]byte("S2 = a+b"))
		ops = fs.Ops()[before:]
		l.Close()
		return fs, dir, before, ops, err
	}

	_, _, before, ops, err := run(t, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The order Checkpoint promises: the snapshot's rename and directory
	// sync are durable before the first operation of the log reset.
	renamed, synced, reset := -1, -1, -1
	for i, op := range ops {
		switch {
		case op.Kind == faultfs.OpRename && strings.HasSuffix(op.Path, "t.snap") && renamed < 0:
			renamed = i
		case op.Kind == faultfs.OpSyncDir && renamed >= 0 && synced < 0:
			synced = i
		case strings.HasSuffix(op.Path, "t.wal.tmp") && reset < 0:
			reset = i
		}
	}
	if renamed < 0 || synced < renamed || reset < synced {
		t.Fatalf("checkpoint order: snapshot rename at %d, dir sync at %d, log reset from %d in %+v", renamed, synced, reset, ops)
	}

	var sawWindow bool
	for k := 1; k <= len(ops); k++ {
		fs, dir, _, _, err := run(t, before+k)
		if err == nil || !fs.Crashed() {
			t.Fatalf("crash at op %d: Checkpoint = %v, crashed = %v", k, err, fs.Crashed())
		}
		snapGen, _, snapErr := ReadSnapshot(filepath.Join(dir, "t.snap"))
		l := openTestLineage(t, dir, nil)
		if snapErr == nil && snapGen > l.Generation() {
			sawWindow = true
		}
		var got recovered
		if err := got.recover(l); err != nil {
			t.Fatalf("crash at op %d (%s %s): recovery failed: %v", k, ops[k-1].Kind, ops[k-1].Path, err)
		}
		old := recovered{frames: []string{"1:a", "1:b"}}
		compacted := recovered{snapshot: "S2 = a+b"}
		if !reflect.DeepEqual(got, old) && !reflect.DeepEqual(got, compacted) {
			t.Fatalf("crash at op %d (%s %s): recovered %+v", k, ops[k-1].Kind, ops[k-1].Path, got)
		}
		if got.snapshot != "" && l.Generation() != 2 {
			t.Fatalf("crash at op %d: snapshot recovered but log generation is %d", k, l.Generation())
		}
		l.Close()
	}
	if !sawWindow {
		t.Fatal("no crash point left the snapshot ahead of the log")
	}
}

// TestLineageCheckpointFailsClosed: a snapshot that cannot be written must
// leave the log as it was — frames and generation — and a later Checkpoint
// must still work.
func TestLineageCheckpointFailsClosed(t *testing.T) {
	dir := t.TempDir()
	probe := faultfs.New(fsx.OS, faultfs.Options{})
	l := openTestLineage(t, dir, probe)
	appendFrames(t, l, "a", "b")
	next := probe.OpCount() + 1
	l.Close()

	dir = t.TempDir()
	fs := faultfs.New(fsx.OS, faultfs.Options{FailAt: next})
	l = openTestLineage(t, dir, fs)
	defer l.Close()
	appendFrames(t, l, "a", "b")
	if err := l.Checkpoint([]byte("S2")); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Checkpoint over a failing snapshot write = %v", err)
	}
	if frames, _ := l.Stats(); frames != 2 || l.Generation() != 1 {
		t.Fatalf("failed checkpoint moved the log: %d frames, generation %d", frames, l.Generation())
	}
	if err := l.Checkpoint([]byte("S2")); err != nil {
		t.Fatal(err)
	}
	var got recovered
	if err := got.recover(l); err != nil || got.snapshot != "S2" || len(got.frames) != 0 {
		t.Fatalf("after the retried checkpoint: %+v, %v", got, err)
	}
}
