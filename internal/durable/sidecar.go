package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"tskd/internal/storage"
)

// sidecar.go: file names and the idempotency-window sidecar. The
// sidecar format (little endian):
//
//	"tskddedp" | u32 version | u32 count | count × u64 key | u32 CRC32
//
// where the CRC covers everything before it.

const (
	sidecarMagic  = "tskddedp"
	sidecarSuffix = ".dd"
	// legacySuffix is the suffix sharded directories used for the same
	// file before both stacks shared this package; it is read when a
	// checkpoint has no .dd sidecar and removed with its generation, but
	// never written.
	legacySuffix = ".dedup"
)

var errCorruptSidecar = errors.New("durable: corrupt dedup sidecar")

func lsnHex(lsn uint64) string { return fmt.Sprintf("%016x", lsn) }

func ckptName(lsn uint64) string { return "ckpt-" + lsnHex(lsn) + ".ckpt" }

func sidecarName(lsn uint64, suffix string) string { return "dedup-" + lsnHex(lsn) + suffix }

// listByLSN returns the LSNs of files named <prefix><16 hex><suffix>
// under dir, ascending.
func listByLSN(dir, prefix, suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var lsns []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
		lsn, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			continue
		}
		lsns = append(lsns, lsn)
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] < lsns[j] })
	return lsns, nil
}

// writeSidecar writes the key window to path atomically.
func writeSidecar(path string, keys []uint64, sync bool) error {
	buf := make([]byte, 0, len(sidecarMagic)+8+8*len(keys)+4)
	buf = append(buf, sidecarMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, 1)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(keys)))
	for _, k := range keys {
		buf = binary.LittleEndian.AppendUint64(buf, k)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return storage.WriteFileAtomic(path, buf, sync)
}

// readSidecar loads the sidecar of the checkpoint at lsn under dir — the
// .dd file, or the legacy .dedup one when there is no .dd. A missing
// sidecar is an empty window; a corrupt one is an error (the matching
// checkpoint is then skipped).
func readSidecar(dir string, lsn uint64) ([]uint64, error) {
	data, err := os.ReadFile(filepath.Join(dir, sidecarName(lsn, sidecarSuffix)))
	if os.IsNotExist(err) {
		data, err = os.ReadFile(filepath.Join(dir, sidecarName(lsn, legacySuffix)))
	}
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	if len(data) < len(sidecarMagic)+12 {
		return nil, errCorruptSidecar
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, errCorruptSidecar
	}
	if string(body[:len(sidecarMagic)]) != sidecarMagic {
		return nil, errCorruptSidecar
	}
	off := len(sidecarMagic)
	if binary.LittleEndian.Uint32(body[off:]) != 1 {
		return nil, errCorruptSidecar
	}
	n := int(binary.LittleEndian.Uint32(body[off+4:]))
	off += 8
	if len(body) != off+8*n {
		return nil, errCorruptSidecar
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = binary.LittleEndian.Uint64(body[off:])
		off += 8
	}
	return keys, nil
}
