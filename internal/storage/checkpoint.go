package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
)

// checkpoint.go implements full-database checkpoints. Together with the
// redo log (internal/wal) they complete the standard recovery story:
// restore the latest checkpoint, then replay the log tail. Checkpoints
// capture each row's committed tuple and version counter, so replay's
// version-gated application works across the checkpoint boundary.
//
// Format (little endian): header "tskdckpt" | u32 version | u32 tables;
// per table: u16 id | u16 nameLen | name | u32 nFields | u64 rows;
// per row: u64 rowKey | u64 verNumber | u16 nFields | fields...;
// trailer: u32 CRC32 of everything before it.

const ckptMagic = "tskdckpt"

// WriteCheckpoint serializes the database. The caller must ensure the
// store is quiescent (no in-flight writers) — checkpoints are taken
// between bundles, as the engine's phase structure guarantees.
func WriteCheckpoint(w io.Writer, db *DB) error {
	bw := bufio.NewWriter(w)
	crc := crc32.NewIEEE()
	out := io.MultiWriter(bw, crc)

	if _, err := out.Write([]byte(ckptMagic)); err != nil {
		return err
	}
	var u32 [4]byte
	var u64 [8]byte
	put32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(u32[:], v)
		_, err := out.Write(u32[:])
		return err
	}
	put64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(u64[:], v)
		_, err := out.Write(u64[:])
		return err
	}
	if err := put32(1); err != nil { // version
		return err
	}
	ids := make([]int, 0, len(db.tables))
	for id := range db.tables {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	if err := put32(uint32(len(ids))); err != nil {
		return err
	}
	for _, idInt := range ids {
		t := db.tables[uint16(idInt)]
		var u16 [2]byte
		binary.LittleEndian.PutUint16(u16[:], t.ID)
		if _, err := out.Write(u16[:]); err != nil {
			return err
		}
		binary.LittleEndian.PutUint16(u16[:], uint16(len(t.Name)))
		if _, err := out.Write(u16[:]); err != nil {
			return err
		}
		if _, err := out.Write([]byte(t.Name)); err != nil {
			return err
		}
		if err := put32(uint32(t.NFields)); err != nil {
			return err
		}
		if err := put64(uint64(t.Len())); err != nil {
			return err
		}
		var rangeErr error
		t.Range(func(r *Row) bool {
			if rangeErr = put64(r.Key.Row()); rangeErr != nil {
				return false
			}
			if rangeErr = put64(VerNumber(r.Ver.Load())); rangeErr != nil {
				return false
			}
			tu := r.Load()
			binary.LittleEndian.PutUint16(u16[:], uint16(len(tu.Fields)))
			if _, rangeErr = out.Write(u16[:]); rangeErr != nil {
				return false
			}
			for _, f := range tu.Fields {
				if rangeErr = put64(f); rangeErr != nil {
					return false
				}
			}
			return true
		})
		if rangeErr != nil {
			return rangeErr
		}
	}
	binary.LittleEndian.PutUint32(u32[:], crc.Sum32())
	if _, err := bw.Write(u32[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteCheckpointFile streams a checkpoint to path atomically: the
// image lands in a temporary file first, is fsynced (unless sync is
// false), renamed into place, and the directory is fsynced so the
// rename itself is durable. A crash at any point leaves either the old
// file or the new one, never a torn mix.
func WriteCheckpointFile(path string, db *DB, sync bool) error {
	return writeAtomic(path, sync, func(w io.Writer) error { return WriteCheckpoint(w, db) })
}

// ReadCheckpointFile loads a checkpoint file written by
// WriteCheckpointFile, verifying the trailer checksum.
func ReadCheckpointFile(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCheckpoint(f)
}

// ReadCheckpoint reconstructs a database from a checkpoint stream,
// verifying the trailer checksum.
func ReadCheckpoint(r io.Reader) (*DB, error) {
	// Read everything: checkpoints are bounded by memory anyway (the
	// store is in-memory).
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) < len(ckptMagic)+8 {
		return nil, fmt.Errorf("storage: checkpoint too short")
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("storage: checkpoint checksum mismatch")
	}
	if string(body[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("storage: not a checkpoint")
	}
	off := len(ckptMagic)
	get32 := func() (uint32, error) {
		if off+4 > len(body) {
			return 0, io.ErrUnexpectedEOF
		}
		v := binary.LittleEndian.Uint32(body[off:])
		off += 4
		return v, nil
	}
	get64 := func() (uint64, error) {
		if off+8 > len(body) {
			return 0, io.ErrUnexpectedEOF
		}
		v := binary.LittleEndian.Uint64(body[off:])
		off += 8
		return v, nil
	}
	get16 := func() (uint16, error) {
		if off+2 > len(body) {
			return 0, io.ErrUnexpectedEOF
		}
		v := binary.LittleEndian.Uint16(body[off:])
		off += 2
		return v, nil
	}
	ver, err := get32()
	if err != nil {
		return nil, err
	}
	if ver != 1 {
		return nil, fmt.Errorf("storage: unsupported checkpoint version %d", ver)
	}
	nTables, err := get32()
	if err != nil {
		return nil, err
	}
	db := NewDB()
	for ti := uint32(0); ti < nTables; ti++ {
		id, err := get16()
		if err != nil {
			return nil, err
		}
		nameLen, err := get16()
		if err != nil {
			return nil, err
		}
		if off+int(nameLen) > len(body) {
			return nil, io.ErrUnexpectedEOF
		}
		name := string(body[off : off+int(nameLen)])
		off += int(nameLen)
		nFields, err := get32()
		if err != nil {
			return nil, err
		}
		rows, err := get64()
		if err != nil {
			return nil, err
		}
		tbl := db.CreateTable(id, name, int(nFields))
		for ri := uint64(0); ri < rows; ri++ {
			key, err := get64()
			if err != nil {
				return nil, err
			}
			verNum, err := get64()
			if err != nil {
				return nil, err
			}
			nf, err := get16()
			if err != nil {
				return nil, err
			}
			row, _ := tbl.Insert(key)
			fields := make([]uint64, nf)
			for fi := range fields {
				fields[fi], err = get64()
				if err != nil {
					return nil, err
				}
			}
			row.Install(&Tuple{Fields: fields})
			row.Ver.Store(verNum << 1)
		}
	}
	return db, nil
}
