package filedb

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

type row struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

func openTestDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestInsertGetRoundTrip(t *testing.T) {
	db := openTestDB(t)
	tbl, err := db.Table("rows")
	if err != nil {
		t.Fatal(err)
	}
	id, err := tbl.Insert(row{"hpcg", 9.348})
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("first id = %d, want 1", id)
	}
	var got row
	if err := tbl.Get(id, &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "hpcg" || got.Value != 9.348 {
		t.Fatalf("got %+v", got)
	}
}

func TestAutoIncrement(t *testing.T) {
	db := openTestDB(t)
	tbl, _ := db.Table("rows")
	for want := int64(1); want <= 10; want++ {
		id, err := tbl.Insert(row{Name: fmt.Sprint(want)})
		if err != nil {
			t.Fatal(err)
		}
		if id != want {
			t.Fatalf("id = %d, want %d", id, want)
		}
	}
}

func TestGetMissing(t *testing.T) {
	db := openTestDB(t)
	tbl, _ := db.Table("rows")
	var got row
	if err := tbl.Get(99, &got); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestUpdate(t *testing.T) {
	db := openTestDB(t)
	tbl, _ := db.Table("rows")
	id, _ := tbl.Insert(row{"a", 1})
	if err := tbl.Update(id, row{"a", 2}); err != nil {
		t.Fatal(err)
	}
	var got row
	tbl.Get(id, &got)
	if got.Value != 2 {
		t.Fatalf("update lost: %+v", got)
	}
	if err := tbl.Update(404, row{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update missing id: %v", err)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("bench")
	tbl.Insert(row{"keep", 1})
	tbl.Insert(row{"keep2", 2})
	tbl.Insert(row{"keep3", 3})
	tbl.Update(1, row{"keep", 1.5})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, _ := db2.Table("bench")
	if tbl2.Len() != 3 {
		t.Fatalf("Len after reopen = %d, want 3", tbl2.Len())
	}
	var got row
	if err := tbl2.Get(1, &got); err != nil || got.Value != 1.5 {
		t.Fatalf("record 1 after reopen: %+v err=%v", got, err)
	}
	// Auto-increment continues past the highest historical id.
	id4, _ := tbl2.Insert(row{"new", 4})
	if id4 != 4 {
		t.Fatalf("next id after reopen = %d, want 4", id4)
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir)
	tbl, _ := db.Table("bench")
	tbl.Insert(row{"a", 1})
	tbl.Insert(row{"b", 2})
	db.Close()

	// Simulate a crash mid-append: chop bytes off the end of the log.
	path := filepath.Join(dir, "bench.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, err := db2.Table("bench")
	if err != nil {
		t.Fatalf("torn tail not recovered: %v", err)
	}
	if tbl2.Len() != 1 {
		t.Fatalf("Len = %d after torn-tail recovery, want 1", tbl2.Len())
	}
	// The table must accept new writes after recovery.
	if _, err := tbl2.Insert(row{"c", 3}); err != nil {
		t.Fatal(err)
	}
}

func TestMidFileCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir)
	tbl, _ := db.Table("bench")
	tbl.Insert(row{"a", 1})
	tbl.Insert(row{"b", 2})
	db.Close()

	path := filepath.Join(dir, "bench.log")
	data, _ := os.ReadFile(path)
	data[10] ^= 0xFF // flip a byte inside the first record
	os.WriteFile(path, data, 0o644)

	db2, _ := Open(dir)
	defer db2.Close()
	if _, err := db2.Table("bench"); err == nil {
		t.Fatal("mid-file corruption silently accepted")
	}
}

// TestNonPutRecordRejected: the log only ever holds "put" records, so a
// CRC-valid record with any other op is corruption, not something to
// skip.
func TestNonPutRecordRejected(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir)
	tbl, _ := db.Table("bench")
	tbl.Insert(row{"a", 1})
	db.Close()

	path := filepath.Join(dir, "bench.log")
	data, _ := os.ReadFile(path)
	off := len(data)
	payload := []byte(`{"op":"del","id":1}`)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	os.WriteFile(path, append(append(data, hdr[:]...), payload...), 0o644)

	db2, _ := Open(dir)
	defer db2.Close()
	_, err := db2.Table("bench")
	if want := fmt.Sprintf("bad record at offset %d", off); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("del record: err = %v, want %q", err, want)
	}
}

func TestEachOrderedAndEarlyStop(t *testing.T) {
	db := openTestDB(t)
	tbl, _ := db.Table("rows")
	for i := 0; i < 10; i++ {
		tbl.Insert(row{fmt.Sprint(i), float64(i)})
	}
	var seen []int64
	tbl.Each(func(id int64, _ json.RawMessage) bool {
		seen = append(seen, id)
		return len(seen) < 4
	})
	if len(seen) != 4 {
		t.Fatalf("early stop ignored: %v", seen)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatalf("ids not ascending: %v", seen)
		}
	}
}

func TestIDs(t *testing.T) {
	db := openTestDB(t)
	tbl, _ := db.Table("rows")
	tbl.Insert(row{})
	tbl.Insert(row{})
	id3, _ := tbl.Insert(row{})
	tbl.Update(2, row{"b", 2})
	ids := liveIDs(tbl)
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != id3 {
		t.Fatalf("IDs = %v", ids)
	}
}

func TestInvalidTableNames(t *testing.T) {
	db := openTestDB(t)
	for _, name := range []string{"", "a/b", "a\\b"} {
		if _, err := db.Table(name); err == nil {
			t.Errorf("table name %q accepted", name)
		}
	}
}

func TestTableHandleIsShared(t *testing.T) {
	db := openTestDB(t)
	a, _ := db.Table("t")
	b, _ := db.Table("t")
	if a != b {
		t.Fatal("same table name returned distinct handles")
	}
}

func TestClosedDBRejectsTables(t *testing.T) {
	db, _ := Open(t.TempDir())
	db.Close()
	if _, err := db.Table("t"); err == nil {
		t.Fatal("Table on closed DB succeeded")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestConcurrentInserts(t *testing.T) {
	db := openTestDB(t)
	tbl, _ := db.Table("rows")
	const workers, each = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := tbl.Insert(row{fmt.Sprintf("w%d", w), float64(i)}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if tbl.Len() != workers*each {
		t.Fatalf("Len = %d, want %d", tbl.Len(), workers*each)
	}
	// All ids distinct by construction of Len; check contiguity.
	ids := liveIDs(tbl)
	if ids[0] != 1 || ids[len(ids)-1] != int64(workers*each) {
		t.Fatalf("id range [%d, %d]", ids[0], ids[len(ids)-1])
	}
}

// Property: any sequence of inserts and updates leaves the table with
// exactly the latest value of every record, across a reopen.
func TestInsertDeleteReopenProperty(t *testing.T) {
	if err := quick.Check(func(ops []bool) bool {
		dir := t.TempDir()
		db, err := Open(dir)
		if err != nil {
			return false
		}
		tbl, err := db.Table("p")
		if err != nil {
			return false
		}
		want := map[int64]float64{}
		for i, ins := range ops {
			v := float64(i)
			if ins || len(want) == 0 {
				id, err := tbl.Insert(row{"v", v})
				if err != nil {
					return false
				}
				want[id] = v
			} else {
				id := int64(i%len(want)) + 1
				if err := tbl.Update(id, row{"v", v}); err != nil {
					return false
				}
				want[id] = v
			}
		}
		db.Close()
		db2, err := Open(dir)
		if err != nil {
			return false
		}
		defer db2.Close()
		tbl2, err := db2.Table("p")
		if err != nil {
			return false
		}
		if tbl2.Len() != len(want) {
			return false
		}
		for id, v := range want {
			var r row
			if err := tbl2.Get(id, &r); err != nil || r.Value != v {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenOnFilePathFails(t *testing.T) {
	dir := t.TempDir()
	filePath := filepath.Join(dir, "notadir")
	if err := os.WriteFile(filePath, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filePath); err == nil {
		t.Fatal("Open on a regular file succeeded")
	}
}

func TestInsertManyRoundTrip(t *testing.T) {
	db := openTestDB(t)
	tbl, _ := db.Table("rows")
	if _, err := tbl.Insert(row{"seed", 0}); err != nil {
		t.Fatal(err)
	}
	ids, err := tbl.InsertMany(3, func(i int, id int64) (any, error) {
		return row{Name: fmt.Sprintf("batch-%d", i), Value: float64(id)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != 2 || ids[1] != 3 || ids[2] != 4 {
		t.Fatalf("ids = %v, want [2 3 4]", ids)
	}
	for i, id := range ids {
		var got row
		if err := tbl.Get(id, &got); err != nil {
			t.Fatal(err)
		}
		if got.Name != fmt.Sprintf("batch-%d", i) || got.Value != float64(id) {
			t.Fatalf("id %d: got %+v (value callback did not see the final id)", id, got)
		}
	}
	if id, _ := tbl.Insert(row{"after", 1}); id != 5 {
		t.Fatalf("next id after batch = %d, want 5", id)
	}
}

func TestInsertManyEmptyAndError(t *testing.T) {
	db := openTestDB(t)
	tbl, _ := db.Table("rows")
	if ids, err := tbl.InsertMany(0, nil); err != nil || ids != nil {
		t.Fatalf("empty batch: %v %v", ids, err)
	}
	boom := errors.New("boom")
	_, err := tbl.InsertMany(2, func(i int, id int64) (any, error) {
		if i == 1 {
			return nil, boom
		}
		return row{"ok", 1}, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// A failed batch writes nothing: the table is unchanged and the id
	// sequence has not advanced.
	if tbl.Len() != 0 {
		t.Fatalf("Len = %d after failed batch", tbl.Len())
	}
	if id, _ := tbl.Insert(row{"x", 1}); id != 1 {
		t.Fatalf("id = %d after failed batch, want 1", id)
	}
}

func TestInsertManyPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir)
	tbl, _ := db.Table("t")
	if _, err := tbl.InsertMany(138, func(i int, id int64) (any, error) {
		return row{Name: fmt.Sprint(i), Value: float64(i)}, nil
	}); err != nil {
		t.Fatal(err)
	}
	db.Close()
	db2, _ := Open(dir)
	defer db2.Close()
	tbl2, _ := db2.Table("t")
	if tbl2.Len() != 138 {
		t.Fatalf("Len after reopen = %d, want 138", tbl2.Len())
	}
	var got row
	if err := tbl2.Get(138, &got); err != nil || got.Name != "137" {
		t.Fatalf("last row: %+v %v", got, err)
	}
}

func TestInsertManyTornTailLeavesPrefix(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir)
	tbl, _ := db.Table("t")
	if _, err := tbl.InsertMany(10, func(i int, id int64) (any, error) {
		return row{Name: fmt.Sprint(i), Value: float64(i)}, nil
	}); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// Simulate a crash mid-batch: chop off the last 11 bytes, tearing
	// the final record.
	path := filepath.Join(dir, "t.log")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-11); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, err := db2.Table("t")
	if err != nil {
		t.Fatalf("reopen after torn batch tail: %v", err)
	}
	// The survivors must be a contiguous id-prefix of the batch.
	ids := liveIDs(tbl2)
	if len(ids) != 9 {
		t.Fatalf("%d rows survived, want 9", len(ids))
	}
	for i, id := range ids {
		if id != int64(i+1) {
			t.Fatalf("ids = %v, not a contiguous prefix", ids)
		}
	}
}

// liveIDs lists a table's live ids through Each, in ascending order.
func liveIDs(t *Table) []int64 {
	var ids []int64
	t.Each(func(id int64, _ json.RawMessage) bool {
		ids = append(ids, id)
		return true
	})
	return ids
}
