package filedb

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplay feeds arbitrary bytes to the log replayer: Open must
// never panic, and whenever it accepts a log the table must be usable
// (insert + reopen round-trips).
func FuzzReplay(f *testing.F) {
	// Seed with a real log containing two records.
	dir, err := os.MkdirTemp("", "fuzzseed")
	if err != nil {
		f.Fatal(err)
	}
	db, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	tbl, err := db.Table("t")
	if err != nil {
		f.Fatal(err)
	}
	tbl.Insert(map[string]int{"v": 1})
	tbl.Insert(map[string]int{"v": 2})
	db.Close()
	seed, err := os.ReadFile(filepath.Join(dir, "t.log"))
	if err != nil {
		f.Fatal(err)
	}
	os.RemoveAll(dir)
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})
	f.Add(seed[:len(seed)-3]) // torn tail
	// Bit-flip seeds: a flipped payload byte (CRC mismatch mid-file →
	// rejected) and a flipped length-header byte (frame desync).
	flipPayload := append([]byte(nil), seed...)
	flipPayload[len(flipPayload)/2] ^= 0x01
	f.Add(flipPayload)
	flipHeader := append([]byte(nil), seed...)
	flipHeader[0] ^= 0x80
	f.Add(flipHeader)
	// A flipped bit in the final record's payload: CRC mismatch at EOF
	// reads as a torn tail and must be truncated, not rejected.
	flipTail := append([]byte(nil), seed...)
	flipTail[len(flipTail)-2] ^= 0x04
	f.Add(flipTail)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "t.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		replayRoundTrip(t, dir)
	})
}

// replayRoundTrip opens dir's "t" table and, if the log was accepted,
// asserts it is fully usable: insert, reopen, read back.
func replayRoundTrip(t *testing.T, dir string) {
	t.Helper()
	db, err := Open(dir)
	if err != nil {
		return
	}
	defer db.Close()
	tbl, err := db.Table("t")
	if err != nil {
		return // corruption rejected — fine
	}
	before := tbl.Len()
	id, err := tbl.Insert(map[string]int{"new": 1})
	if err != nil {
		t.Fatalf("accepted log but insert failed: %v", err)
	}
	if tbl.Len() != before+1 {
		t.Fatalf("Len %d → %d after insert", before, tbl.Len())
	}
	db.Close()

	db2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after accepted log failed: %v", err)
	}
	defer db2.Close()
	tbl2, err := db2.Table("t")
	if err != nil {
		t.Fatalf("reopen table failed: %v", err)
	}
	var got map[string]int
	if err := tbl2.Get(id, &got); err != nil {
		t.Fatalf("inserted record lost across reopen: %v", err)
	}
}

// FuzzTornTail is the durability contract under crash-truncated batch
// writes: build a log with one InsertMany batch, tear it at an
// arbitrary byte offset, and require that recovery (a) never errors —
// pure truncation is always a torn tail, never "corruption" — and
// (b) yields exactly a contiguous id-prefix of the batch, after which
// the table accepts new writes that round-trip across reopen.
func FuzzTornTail(f *testing.F) {
	f.Add(uint8(4), uint32(0))     // everything torn away
	f.Add(uint8(4), uint32(1<<31)) // nothing torn
	f.Add(uint8(8), uint32(7))     // mid-header of the first record
	f.Add(uint8(8), uint32(100))   // mid-payload
	f.Add(uint8(1), uint32(8))     // header intact, payload gone
	f.Add(uint8(12), uint32(63))   // mid-batch
	f.Fuzz(func(t *testing.T, batch uint8, cut uint32) {
		n := int(batch%12) + 1
		dir := t.TempDir()
		db, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := db.Table("t")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.InsertMany(n, func(i int, id int64) (any, error) {
			return map[string]int64{"idx": int64(i), "id": id}, nil
		}); err != nil {
			t.Fatal(err)
		}
		db.Close()

		path := filepath.Join(dir, "t.log")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if int64(cut) < int64(len(data)) {
			if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
		}

		db2, err := Open(dir)
		if err != nil {
			t.Fatalf("torn tail rejected instead of truncated: %v", err)
		}
		tbl2, err := db2.Table("t")
		if err != nil {
			t.Fatalf("torn tail rejected instead of truncated: %v", err)
		}
		ids := liveIDs(tbl2)
		if int64(cut) >= int64(len(data)) && len(ids) != n {
			t.Fatalf("untorn log recovered %d of %d records", len(ids), n)
		}
		for i, id := range ids {
			if id != int64(i)+1 {
				t.Fatalf("ids %v are not a contiguous prefix of the batch", ids)
			}
			var got map[string]int64
			if err := tbl2.Get(id, &got); err != nil {
				t.Fatalf("surviving record %d unreadable: %v", id, err)
			}
			if got["idx"] != int64(i) || got["id"] != id {
				t.Fatalf("record %d corrupted: %+v", id, got)
			}
		}

		// The recovered table must keep working: the next insert gets
		// the next contiguous id and survives another reopen.
		newID, err := tbl2.Insert(map[string]int64{"idx": -1})
		if err != nil {
			t.Fatalf("insert after recovery: %v", err)
		}
		if want := int64(len(ids)) + 1; newID != want {
			t.Fatalf("post-recovery id = %d, want %d", newID, want)
		}
		db2.Close()
		replayRoundTrip(t, dir)
	})
}
