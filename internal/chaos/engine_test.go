package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trajforge/internal/fsx"
	"trajforge/internal/fsx/faultfs"
)

// toyJournal is a scenario small enough to read in one screen: it appends
// fixed-size records to one file, each followed by a Sync, and observes how
// many it acknowledged. The recovery check is the durability contract:
// every acknowledged record is in the file.
type toyJournal struct {
	// ackEarly plants the bug the engine exists to find: a record is
	// acknowledged before its write and Sync have succeeded.
	ackEarly bool
	// unwired plants a harness bug: only the first (counting) run puts the
	// journal on the victim's filesystem, so no planned fault can fire.
	unwired bool
	runs    int
}

const toyRecords, toyRecordLen = 3, 8

func (sc *toyJournal) victims() []string { return []string{""} }

func (sc *toyJournal) run(dir, _ string, ffs *faultfs.FS) (acked int, err error) {
	var fs fsx.FS = ffs
	if sc.runs++; sc.unwired && sc.runs > 1 {
		fs = fsx.OS
	}
	if fs.MkdirAll(dir, 0o755) != nil {
		return 0, nil
	}
	f, err := fs.OpenFile(filepath.Join(dir, "toy.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, nil
	}
	defer f.Close()
	for i := 0; i < toyRecords; i++ {
		if sc.ackEarly {
			acked++
		}
		if _, err := f.Write(make([]byte, toyRecordLen)); err != nil {
			break
		}
		if f.Sync() != nil {
			break
		}
		if !sc.ackEarly {
			acked++
		}
	}
	return acked, nil
}

func (sc *toyJournal) check(dir string, acked int, _ *Report) error {
	data, err := os.ReadFile(filepath.Join(dir, "toy.log"))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	if got := len(data) / toyRecordLen; got < acked {
		return fmt.Errorf("recovered %d records, %d were acknowledged", got, acked)
	}
	return nil
}

// TestEngine exercises the engine itself on the toy scenario: a correct
// journal explores clean, a planted durability bug is caught and named by
// fault site, a victim filesystem no fault can reach is reported rather
// than passed, and an exploration without a scratch directory is refused.
func TestEngine(t *testing.T) {
	rep, err := explore("toy", &toyJournal{}, Options{Seed: 5, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	// mkdir, create, then a write and a sync per record.
	if want := 2 + 2*toyRecords; rep.Sites != want {
		t.Fatalf("explored %d sites, want %d", rep.Sites, want)
	}

	_, err = explore("toy", &toyJournal{ackEarly: true}, Options{Seed: 5, Dir: t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "site 3 (write toy.log)") ||
		!strings.Contains(err.Error(), "recovered 0 records, 1 were acknowledged") {
		t.Fatalf("ack-before-sync journal: got %v, want a violation at site 3 (write toy.log)", err)
	}

	_, err = explore("toy", &toyJournal{unwired: true}, Options{Seed: 5, Dir: t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "site 1 (mkdir") || !strings.Contains(err.Error(), "fault never fired") {
		t.Fatalf("unwired victim filesystem: got %v, want fault never fired at site 1", err)
	}

	if _, err = explore("toy", &toyJournal{}, Options{Seed: 5}); err == nil || !strings.Contains(err.Error(), "Dir is required") {
		t.Fatalf("empty Dir: got %v, want a refusal", err)
	}
}
