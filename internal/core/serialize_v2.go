package core

// Mapped engine-file format: the flat blocks stored in section-aligned
// segments so a serialised engine can be mapped straight into the
// address space, paged in lazily and stepped in place by the same
// kernels as a resident graph. SaveFileV2 writes it; the header carries
// version 4. Version 2 was a chunked-varint layout whose engines
// decoded inside the step and is no longer read; version 3 was the
// retired sharded container.
//
// Layout (all integers little-endian, every section start padded to a
// 64-byte boundary):
//
//	header   magic u64, version u32 = 4, numV u32, numE u64,
//	         numHubs u32, numVWEH u32, numFV u32, hubsPerBlock u32,
//	         minHubDeg u32, numBlocks u32, destLo u32, pad → 64 B
//	newid    [numV]u32 raw
//	oldid    [numV]u32 raw
//	per flipped block:
//	  meta     hubLo u32, hubHi u32, sources u32, pad u32,
//	           lenIdx u64, lenDsts u64
//	  index    [lenIdx]i64 raw
//	  dsts     [lenDsts]u32 raw
//	sparse:
//	  meta     lenIdx u64, lenSrcs u64
//	  index    [lenIdx]i64 raw
//	  srcs     [lenSrcs]u32 raw
//
// The degree buckets are derived (EnsureDegreeBuckets reads only
// Index) and not stored. On little-endian hosts every raw section is
// aliased in place — opening a file allocates O(blocks) metadata, not
// O(edges); on big-endian or misaligned mappings the sections are
// copied element-wise, which keeps the format portable at the cost of
// residency.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"unsafe"

	"ihtl/internal/atomicio"
)

// ihtlVersion4 is the mapped engine-file version SaveFileV2 writes.
// ihtlVersionVarint is the retired chunked-varint layout, rejected
// with a hint to rebuild the file.
const (
	ihtlVersion4      = uint32(4)
	ihtlVersionVarint = uint32(2)
)

// hostLittle reports whether this host is little-endian; when true the
// raw sections of a mapped engine file alias directly into the mapping.
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// WriteToV2 serialises ih in the mapped engine-file format, header
// version 4 (the name predates the version bump): flat, 64-byte-aligned
// index and adjacency sections that OpenEngineFile aliases in place.
func (ih *IHTL) WriteToV2(w io.Writer) (int64, error) {
	vw := &v2writer{w: bufio.NewWriterSize(w, 1<<20)}
	vw.u64(ihtlMagic)
	vw.u32(ihtlVersion4)
	vw.u32(uint32(ih.NumV))
	vw.u64(uint64(ih.NumE))
	vw.u32(uint32(ih.NumHubs))
	vw.u32(uint32(ih.NumVWEH))
	vw.u32(uint32(ih.NumFV))
	vw.u32(uint32(ih.HubsPerBlock))
	vw.u32(uint32(ih.MinHubDegree))
	vw.u32(uint32(len(ih.Blocks)))
	vw.u32(uint32(ih.Sparse.DestLo))
	vw.pad64()
	vw.rawU32(ih.NewID)
	vw.pad64()
	vw.rawU32(ih.OldID)
	vw.pad64()
	for i := range ih.Blocks {
		fb := &ih.Blocks[i]
		vw.u32(uint32(fb.HubLo))
		vw.u32(uint32(fb.HubHi))
		vw.u32(uint32(fb.Sources))
		vw.u32(0)
		vw.u64(uint64(len(fb.Index)))
		vw.u64(uint64(len(fb.Dsts)))
		vw.pad64()
		vw.rawI64(fb.Index)
		vw.pad64()
		vw.rawU32(fb.Dsts)
		vw.pad64()
	}
	vw.u64(uint64(len(ih.Sparse.Index)))
	vw.u64(uint64(len(ih.Sparse.Srcs)))
	vw.pad64()
	vw.rawI64(ih.Sparse.Index)
	vw.pad64()
	vw.rawU32(ih.Sparse.Srcs)
	vw.pad64()
	if vw.err == nil {
		vw.err = vw.w.Flush()
	}
	return vw.n, vw.err
}

// SaveFileV2 writes ih to path in the mapped engine-file format
// (header version 4), atomically replacing any existing file.
func (ih *IHTL) SaveFileV2(path string) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		_, err := ih.WriteToV2(w)
		return err
	})
}

// v2writer counts bytes so sections can be padded to 64-byte starts.
type v2writer struct {
	w   *bufio.Writer
	n   int64
	err error
	buf [8]byte
}

func (vw *v2writer) write(p []byte) {
	if vw.err != nil {
		return
	}
	m, err := vw.w.Write(p)
	vw.n += int64(m)
	vw.err = err
}

func (vw *v2writer) u32(v uint32) {
	binary.LittleEndian.PutUint32(vw.buf[:4], v)
	vw.write(vw.buf[:4])
}

func (vw *v2writer) u64(v uint64) {
	binary.LittleEndian.PutUint64(vw.buf[:8], v)
	vw.write(vw.buf[:8])
}

func (vw *v2writer) pad64() {
	var zero [64]byte
	if rem := vw.n % 64; rem != 0 {
		vw.write(zero[:64-rem])
	}
}

// The raw-array writers stream through a fixed chunk buffer rather
// than binary.Write, whose slice path buffers the whole array.
func (vw *v2writer) rawU32(a []uint32) {
	var chunk [1 << 14]byte
	for len(a) > 0 && vw.err == nil {
		n := len(chunk) / 4
		if n > len(a) {
			n = len(a)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(chunk[i*4:], a[i])
		}
		vw.write(chunk[: n*4 : n*4])
		a = a[n:]
	}
}

func (vw *v2writer) rawI64(a []int64) {
	var chunk [1 << 14]byte
	for len(a) > 0 && vw.err == nil {
		n := len(chunk) / 8
		if n > len(a) {
			n = len(a)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(chunk[i*8:], uint64(a[i]))
		}
		vw.write(chunk[: n*8 : n*8])
		a = a[n:]
	}
}

// EngineFile is an engine graph opened from disk. Version-4 files stay
// backed by their (typically memory-mapped) byte range: the IHTL's
// relabeling, Index and adjacency arrays alias the mapping and page in
// on first touch. Version-1 files are decoded into resident memory, so
// old files keep working everywhere.
type EngineFile struct {
	ih     *IHTL
	data   []byte
	mapped bool
}

// IHTL returns the opened graph. For a mapped file it stays valid only
// until Close.
func (ef *EngineFile) IHTL() *IHTL { return ef.ih }

// Mapped reports whether the topology is memory-mapped (true only for
// version-4 files on platforms where the mmap succeeded).
func (ef *EngineFile) Mapped() bool { return ef.mapped }

// Close releases the mapping. The IHTL and any engines built over it
// must not be used afterwards.
func (ef *EngineFile) Close() error {
	data, mapped := ef.data, ef.mapped
	ef.ih, ef.data, ef.mapped = nil, nil, false
	if mapped {
		return unmapFile(data)
	}
	return nil
}

// OpenEngineFile opens a serialised engine graph. Version-4 files are
// memory-mapped read-only where the platform allows (with a
// read-into-memory fallback), validated, and stepped in place: engines
// over the mapping run the same flat kernels as over a resident graph,
// with the adjacency never copied to the heap. Version-1 files fall
// back to the resident ReadIHTL decoder. Other versions are refused
// before anything is mapped.
func OpenEngineFile(path string) (*EngineFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var hdr [12]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, fmt.Errorf("core: reading %s header: %w", path, err)
	}
	if magic := binary.LittleEndian.Uint64(hdr[:8]); magic != ihtlMagic {
		return nil, fmt.Errorf("core: %s: bad magic %#x", path, magic)
	}
	switch version := binary.LittleEndian.Uint32(hdr[8:12]); version {
	case ihtlVersion:
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		ih, err := ReadIHTL(f)
		if err != nil {
			return nil, err
		}
		return &EngineFile{ih: ih}, nil
	case ihtlVersion4:
		st, err := f.Stat()
		if err != nil {
			return nil, err
		}
		data, mapped, err := mapFile(f, st.Size())
		if err != nil {
			return nil, err
		}
		ih, err := parseV2(data)
		if err != nil {
			if mapped {
				unmapFile(data)
			}
			return nil, fmt.Errorf("core: %s: %w", path, err)
		}
		return &EngineFile{ih: ih, data: data, mapped: mapped}, nil
	default:
		return nil, fmt.Errorf("core: %s: %w", path, unsupportedVersion(version))
	}
}

// unsupportedVersion is the error for a header version no reader
// accepts, with a rebuild hint for the retired varint layout.
func unsupportedVersion(version uint32) error {
	if version == ihtlVersionVarint {
		return fmt.Errorf("core: unsupported version %d (chunked-varint engine file; rebuild it from the graph or a version-1 file with ihtlconvert -to ihtlv2)", version)
	}
	return fmt.Errorf("core: unsupported version %d", version)
}

// readV4Resident lets the stream-based ReadIHTL (and so LoadFile)
// accept version-4 files: the remainder of the stream — the 12-byte
// magic/version prefix was already consumed — is read into an aligned
// buffer, re-prefixed, and parsed resident.
func readV4Resident(r io.Reader) (*IHTL, error) {
	rest, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	size := int64(12 + len(rest))
	words := make([]int64, (size+7)/8)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), size)
	binary.LittleEndian.PutUint64(buf[:8], ihtlMagic)
	binary.LittleEndian.PutUint32(buf[8:12], ihtlVersion4)
	copy(buf[12:], rest)
	return parseV2(buf)
}

// readFileAligned reads the whole file into an 8-byte-aligned buffer —
// the portable fallback when mapping is unavailable. Backing the bytes
// with an []int64 guarantees the alignment the aliasing fast path
// needs.
func readFileAligned(f *os.File, size int64) ([]byte, bool, error) {
	if size == 0 {
		return nil, false, nil
	}
	if int64(int(size)) != size {
		return nil, false, fmt.Errorf("core: file too large (%d bytes)", size)
	}
	words := make([]int64, (size+7)/8)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), size)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), buf); err != nil {
		return nil, false, err
	}
	return buf, false, nil
}

// v2cursor walks a mapped engine-file byte range with checked reads
// and 64-byte section alignment.
type v2cursor struct {
	data []byte
	off  int64
}

func (c *v2cursor) need(n int64) error {
	if n < 0 || n > int64(len(c.data))-c.off {
		return fmt.Errorf("core: engine file truncated at offset %d (need %d of %d bytes)", c.off, n, len(c.data))
	}
	return nil
}

func (c *v2cursor) align64() { c.off = (c.off + 63) &^ 63 }

func (c *v2cursor) u32() (uint32, error) {
	if err := c.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(c.data[c.off:])
	c.off += 4
	return v, nil
}

func (c *v2cursor) u64() (uint64, error) {
	if err := c.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(c.data[c.off:])
	c.off += 8
	return v, nil
}

func (c *v2cursor) bytes(n int64) ([]byte, error) {
	if err := c.need(n); err != nil {
		return nil, err
	}
	b := c.data[c.off : c.off+n : c.off+n]
	c.off += n
	return b, nil
}

// aliasU32 returns n little-endian uint32s starting at the cursor —
// zero-copy on aligned little-endian hosts, copied otherwise.
func (c *v2cursor) aliasU32(n int) ([]uint32, error) {
	b, err := c.bytes(int64(n) * 4)
	if err != nil || n == 0 {
		return nil, err
	}
	if hostLittle && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out, nil
}

func (c *v2cursor) aliasI64(n int) ([]int64, error) {
	b, err := c.bytes(int64(n) * 8)
	if err != nil || n == 0 {
		return nil, err
	}
	if hostLittle && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}

// parseV2 decodes (mostly: aliases) a version-4 byte range into an
// IHTL whose arrays point into data, running every check the unchecked
// kernels rely on before any engine can step it: the relabeling is a
// permutation, every flipped destination lies in its block's hub
// range, every sparse source is below NumV, section lengths match the
// Index totals (checkShape), and the sections end exactly at the end
// of the range.
//
//ihtl:nopanic
func parseV2(data []byte) (*IHTL, error) {
	c := &v2cursor{data: data}
	magic, err := c.u64()
	if err != nil {
		return nil, err
	}
	if magic != ihtlMagic {
		return nil, fmt.Errorf("core: bad magic %#x", magic)
	}
	version, err := c.u32()
	if err != nil {
		return nil, err
	}
	if version != ihtlVersion4 {
		return nil, unsupportedVersion(version)
	}
	var numV, numHubs, numVWEH, numFV, hubsPerBlock, minHubDeg, numBlocks, destLo uint32
	var numE uint64
	for _, read := range []func() error{
		func() error { numV, err = c.u32(); return err },
		func() error { numE, err = c.u64(); return err },
		func() error { numHubs, err = c.u32(); return err },
		func() error { numVWEH, err = c.u32(); return err },
		func() error { numFV, err = c.u32(); return err },
		func() error { hubsPerBlock, err = c.u32(); return err },
		func() error { minHubDeg, err = c.u32(); return err },
		func() error { numBlocks, err = c.u32(); return err },
		func() error { destLo, err = c.u32(); return err },
	} {
		if err := read(); err != nil {
			return nil, err
		}
	}
	if numE > 1<<40 || numBlocks > 1<<20 {
		return nil, fmt.Errorf("core: implausible header (E=%d, blocks=%d)", numE, numBlocks)
	}
	if uint64(numHubs)+uint64(numVWEH)+uint64(numFV) != uint64(numV) {
		return nil, fmt.Errorf("core: class sizes %d+%d+%d != %d", numHubs, numVWEH, numFV, numV)
	}
	ih := &IHTL{
		NumV: int(numV), NumE: int64(numE),
		NumHubs: int(numHubs), NumVWEH: int(numVWEH), NumFV: int(numFV),
		HubsPerBlock: int(hubsPerBlock), MinHubDegree: int(minHubDeg),
	}
	c.align64()
	var newID, oldID []uint32
	if newID, err = c.aliasU32(int(numV)); err != nil {
		return nil, err
	}
	c.align64()
	if oldID, err = c.aliasU32(int(numV)); err != nil {
		return nil, err
	}
	c.align64()
	ih.NewID, ih.OldID = newID, oldID
	for v, nv := range ih.NewID {
		if int(nv) >= ih.NumV || int(ih.OldID[nv]) != v {
			return nil, fmt.Errorf("core: corrupt relabeling arrays at %d", v)
		}
	}
	ih.Blocks = make([]FlippedBlock, numBlocks)
	var total int64
	for i := range ih.Blocks {
		fb := &ih.Blocks[i]
		var hubLo, hubHi, sources uint32
		for _, p := range []*uint32{&hubLo, &hubHi, &sources} {
			if *p, err = c.u32(); err != nil {
				return nil, err
			}
		}
		if _, err = c.u32(); err != nil { // pad
			return nil, err
		}
		fb.HubLo, fb.HubHi, fb.Sources = int(hubLo), int(hubHi), int(sources)
		if fb.HubLo > fb.HubHi || fb.HubHi > ih.NumHubs {
			return nil, fmt.Errorf("core: block %d hub range [%d,%d) invalid", i, fb.HubLo, fb.HubHi)
		}
		if fb.Index, fb.Dsts, err = c.csr(fmt.Sprintf("block %d", i), numV, numE); err != nil {
			return nil, err
		}
		if j := firstOutside(fb.Dsts, hubLo, hubHi); j >= 0 {
			return nil, fmt.Errorf("core: block %d destination %d out of range", i, fb.Dsts[j])
		}
		total += fb.NumEdges()
	}
	ih.Sparse.DestLo = int(destLo)
	if ih.Sparse.Index, ih.Sparse.Srcs, err = c.csr("sparse block", numV, numE); err != nil {
		return nil, err
	}
	if j := firstOutside(ih.Sparse.Srcs, 0, numV); j >= 0 {
		return nil, fmt.Errorf("core: sparse source %d out of range", ih.Sparse.Srcs[j])
	}
	total += ih.Sparse.NumEdges()
	if total != ih.NumE {
		return nil, fmt.Errorf("core: blocks cover %d edges, header says %d", total, ih.NumE)
	}
	// The writer pads every section — including the last — to a
	// 64-byte boundary, so the last alignment must land on the end of
	// the range. Anything else is truncation or trailing junk.
	if c.off != int64(len(data)) {
		return nil, fmt.Errorf("core: engine file size mismatch (%d bytes parsed, %d in file)", c.off, len(data))
	}
	if err := ih.checkShape(); err != nil {
		return nil, err
	}
	ih.params = Params{HubsPerBlock: ih.HubsPerBlock}.withDefaults()
	return ih, nil
}

// csr reads one block's section meta (index and adjacency lengths)
// and aliases its Index and adjacency sections, leaving the cursor on
// the next 64-byte boundary. Lengths are bounded by the header's NumV
// and NumE before anything is aliased; that the adjacency holds
// exactly the edges its Index counts is checkShape's.
func (c *v2cursor) csr(label string, numV uint32, numE uint64) ([]int64, []uint32, error) {
	lenIdx, err := c.u64()
	if err != nil {
		return nil, nil, err
	}
	lenAdj, err := c.u64()
	if err != nil {
		return nil, nil, err
	}
	if lenIdx > uint64(numV)+1 || lenAdj > numE {
		return nil, nil, fmt.Errorf("core: %s: implausible section sizes (%d offsets, %d neighbours)", label, lenIdx, lenAdj)
	}
	c.align64()
	idx, err := c.aliasI64(int(lenIdx))
	if err != nil {
		return nil, nil, err
	}
	c.align64()
	adj, err := c.aliasU32(int(lenAdj))
	if err != nil {
		return nil, nil, err
	}
	c.align64()
	return idx, adj, nil
}
