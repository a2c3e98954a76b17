// Package spillfile is the on-disk format shared by the repo's
// out-of-core tiers: the PLI cache's spill files (partition.EnableSpill)
// and the relation's column pager (relation.Options.PageColumns). Both
// write the same container — an 8-byte magic, three little-endian uint64
// header fields, then flat native-order int32 payload arrays — and both
// read it back either through a read-only memory mapping (on platforms
// that support it) or a plain heap read once the mapping cap is reached.
//
// Files in this format are private to one process: payload arrays are
// written in native byte order and the files are removed by their
// owner's Close. The header stays little-endian so a stale or foreign
// file is detected rather than misparsed.
package spillfile

import (
	"encoding/binary"
	"errors"
	"unsafe"
)

// Magic identifies a spill-format file; the version byte guards decode
// against stale files from a different layout.
var Magic = [8]byte{'P', 'L', 'I', 'S', 'P', 'L', '1', 0}

// ErrCorrupt marks a spill-format file whose header or payload fails
// its reader's validation. Readers wrap it, so callers can tell a
// damaged file (drop it, recompute) from an I/O failure.
var ErrCorrupt = errors.New("spillfile: corrupt file")

// HeaderBytes is the fixed header size: the magic plus three
// little-endian uint64 fields. For PLI spill files the fields are
// {nrows, noffsets, nbacking}; the column pager reuses the same shape
// with a single-element offsets array, so a paged column is itself a
// valid spill file.
const HeaderBytes = 8 + 3*8

// MaxMappings bounds the live memory mappings one consumer (a cache's
// spill tier, a relation's column pager) holds at once. Mappings stay
// alive until the owner's Close because reloaded data aliases them, so
// a thrashing run would otherwise accumulate one VMA per reload until
// the kernel's per-process map limit (vm.max_map_count, ~65k by
// default) starves the runtime's own allocator. Past the cap, reads
// land on the heap instead: same bytes, GC-managed lifetime, no new
// mapping.
const MaxMappings = 1024

// EncodeHeader lays the magic and the three header fields into a
// header block ready to write (or to patch in place with WriteAt once
// streamed counts are known).
func EncodeHeader(a, b, c int) [HeaderBytes]byte {
	var hdr [HeaderBytes]byte
	copy(hdr[:8], Magic[:])
	binary.LittleEndian.PutUint64(hdr[8:], uint64(a))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(b))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(c))
	return hdr
}

// DecodeHeader reads the three header fields back. It does not
// validate: callers check the magic and the payload length against
// their own expectations, so each tier reports errors in its own
// vocabulary.
func DecodeHeader(buf []byte) (a, b, c int) {
	return int(binary.LittleEndian.Uint64(buf[8:])),
		int(binary.LittleEndian.Uint64(buf[16:])),
		int(binary.LittleEndian.Uint64(buf[24:]))
}

// HasMagic reports whether buf starts with a well-formed header prefix.
func HasMagic(buf []byte) bool {
	return len(buf) >= HeaderBytes && [8]byte(buf[:8]) == Magic
}

// Int32Bytes views an int32 slice as raw native-order bytes, so writes
// stream the flat arrays without a copy.
func Int32Bytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
}

// BytesInt32 is the inverse view. b must be 4-aligned (spill buffers
// are: mappings are page-aligned, heap buffers are allocated aligned,
// and the header is a multiple of 8 bytes).
func BytesInt32(b []byte) []int32 {
	if len(b) == 0 {
		return []int32{}
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}
