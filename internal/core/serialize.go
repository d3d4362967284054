package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"ihtl/internal/atomicio"
	"ihtl/internal/graph"
)

// Binary iHTL-graph format (little-endian). Storing the preprocessed
// structure lets the one-time construction cost be amortised across
// runs — "the preprocessing overhead can be completely amortized
// between different executions if the iHTL graph is stored in its
// binary format ... on disk after preprocessing" (§4.2).
const (
	ihtlMagic   = uint64(0x4948544c42494e31) // "IHTLBIN1"
	ihtlVersion = uint32(1)
)

// WriteTo serialises ih. Layout: header, relabeling arrays, per-block
// (hub range, index, dsts), sparse block.
func (ih *IHTL) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	var n int64
	put := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	hdr := []any{
		ihtlMagic, ihtlVersion,
		uint32(ih.NumV), uint64(ih.NumE),
		uint32(ih.NumHubs), uint32(ih.NumVWEH), uint32(ih.NumFV),
		uint32(ih.HubsPerBlock), uint32(ih.MinHubDegree),
		uint32(len(ih.Blocks)),
	}
	for _, h := range hdr {
		if err := put(h); err != nil {
			return n, err
		}
	}
	if err := put(ih.NewID); err != nil {
		return n, err
	}
	if err := put(ih.OldID); err != nil {
		return n, err
	}
	for i := range ih.Blocks {
		fb := &ih.Blocks[i]
		for _, v := range []any{uint32(fb.HubLo), uint32(fb.HubHi), uint32(fb.Sources), uint64(len(fb.Index)), uint64(len(fb.Dsts))} {
			if err := put(v); err != nil {
				return n, err
			}
		}
		if err := put(fb.Index); err != nil {
			return n, err
		}
		if err := put(fb.Dsts); err != nil {
			return n, err
		}
	}
	for _, v := range []any{uint32(ih.Sparse.DestLo), uint64(len(ih.Sparse.Index)), uint64(len(ih.Sparse.Srcs))} {
		if err := put(v); err != nil {
			return n, err
		}
	}
	if err := put(ih.Sparse.Index); err != nil {
		return n, err
	}
	if err := put(ih.Sparse.Srcs); err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// ReadIHTL deserialises an iHTL graph written by WriteTo and checks
// its structural invariants.
func ReadIHTL(r io.Reader) (*IHTL, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	get := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }
	var magic uint64
	if err := get(&magic); err != nil {
		return nil, fmt.Errorf("core: reading magic: %w", err)
	}
	if magic != ihtlMagic {
		return nil, fmt.Errorf("core: bad magic %#x", magic)
	}
	var version uint32
	if err := get(&version); err != nil {
		return nil, err
	}
	if version == ihtlVersion4 {
		return readV4Resident(br)
	}
	if version != ihtlVersion {
		return nil, unsupportedVersion(version)
	}
	var numV, numHubs, numVWEH, numFV, hubsPerBlock, minHubDeg, numBlocks uint32
	var numE uint64
	for _, p := range []any{&numV, &numE, &numHubs, &numVWEH, &numFV, &hubsPerBlock, &minHubDeg, &numBlocks} {
		if err := get(p); err != nil {
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
	var err error
	if ih.NewID, err = graph.ReadChunked[graph.VID](br, uint64(numV)); err != nil {
		return nil, err
	}
	if ih.OldID, err = graph.ReadChunked[graph.VID](br, uint64(numV)); err != nil {
		return nil, err
	}
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
		var lenIdx, lenDsts uint64
		for _, p := range []any{&hubLo, &hubHi, &sources, &lenIdx, &lenDsts} {
			if err := get(p); err != nil {
				return nil, err
			}
		}
		if lenIdx > uint64(numV)+1 || lenDsts > numE {
			return nil, fmt.Errorf("core: implausible block %d sizes", i)
		}
		fb.HubLo, fb.HubHi, fb.Sources = int(hubLo), int(hubHi), int(sources)
		if fb.Index, err = graph.ReadChunked[int64](br, lenIdx); err != nil {
			return nil, err
		}
		if fb.Dsts, err = graph.ReadChunked[graph.VID](br, lenDsts); err != nil {
			return nil, err
		}
		if fb.HubLo > fb.HubHi || fb.HubHi > ih.NumHubs {
			return nil, fmt.Errorf("core: block %d hub range [%d,%d) invalid", i, fb.HubLo, fb.HubHi)
		}
		if j := firstOutside(fb.Dsts, hubLo, hubHi); j >= 0 {
			return nil, fmt.Errorf("core: block %d destination %d out of range", i, fb.Dsts[j])
		}
		total += fb.NumEdges()
	}
	var destLo uint32
	var lenIdx, lenSrcs uint64
	for _, p := range []any{&destLo, &lenIdx, &lenSrcs} {
		if err := get(p); err != nil {
			return nil, err
		}
	}
	if lenIdx > uint64(numV)+1 || lenSrcs > numE {
		return nil, fmt.Errorf("core: implausible sparse block sizes")
	}
	ih.Sparse.DestLo = int(destLo)
	if ih.Sparse.Index, err = graph.ReadChunked[int64](br, lenIdx); err != nil {
		return nil, err
	}
	if ih.Sparse.Srcs, err = graph.ReadChunked[graph.VID](br, lenSrcs); err != nil {
		return nil, err
	}
	if j := firstOutside(ih.Sparse.Srcs, 0, numV); j >= 0 {
		return nil, fmt.Errorf("core: sparse source %d out of range", ih.Sparse.Srcs[j])
	}
	total += ih.Sparse.NumEdges()
	if total != ih.NumE {
		return nil, fmt.Errorf("core: blocks cover %d edges, header says %d", total, ih.NumE)
	}
	if err := ih.checkShape(); err != nil {
		return nil, err
	}
	ih.params = Params{HubsPerBlock: ih.HubsPerBlock}.withDefaults()
	return ih, nil
}

// checkShape verifies the layout the engine kernels assume of a graph
// read from a file, beyond the per-section checks of each reader: the
// flipped blocks tile the hub range [0, NumHubs) in order, the sparse
// block covers every destination from NumHubs on, every Index starts
// at 0, never decreases and has one offset per row plus one, and every
// adjacency holds exactly the edges its Index counts.
// The kernels index through unchecked accessors, so a graph breaking
// one of these would read or write out of bounds instead of failing.
func (ih *IHTL) checkShape() error {
	hub := 0
	for i := range ih.Blocks {
		fb := &ih.Blocks[i]
		if fb.HubLo != hub || fb.HubHi < fb.HubLo {
			return fmt.Errorf("core: block %d hub range [%d,%d) does not continue the hub tiling at %d", i, fb.HubLo, fb.HubHi, hub)
		}
		hub = fb.HubHi
		if err := checkIndex(fb.Index, ih.NumPushSources(), fb.Dsts); err != nil {
			return fmt.Errorf("core: block %d: %w", i, err)
		}
	}
	if hub != ih.NumHubs {
		return fmt.Errorf("core: blocks cover hubs [0,%d), want [0,%d)", hub, ih.NumHubs)
	}
	sp := &ih.Sparse
	if sp.DestLo != ih.NumHubs {
		return fmt.Errorf("core: sparse block starts at %d, want %d", sp.DestLo, ih.NumHubs)
	}
	if err := checkIndex(sp.Index, ih.NumV-sp.DestLo, sp.Srcs); err != nil {
		return fmt.Errorf("core: sparse block: %w", err)
	}
	return nil
}

// checkIndex verifies one CSR offset array over rows rows and the
// length of its adjacency adj.
func checkIndex(idx []int64, rows int, adj []graph.VID) error {
	if len(idx) != rows+1 || idx[0] != 0 {
		return fmt.Errorf("index has %d offsets for %d rows", len(idx), rows)
	}
	for i := 1; i < len(idx); i++ {
		if idx[i] < idx[i-1] {
			return fmt.Errorf("index decreases at row %d", i-1)
		}
	}
	if int64(len(adj)) != idx[rows] {
		return fmt.Errorf("%d neighbours for %d indexed edges", len(adj), idx[rows])
	}
	return nil
}

// firstOutside returns the position of the first element of a outside
// [lo, hi), or -1 when every element is inside: the range check both
// file readers run over each adjacency section before the unchecked
// kernels may index with it.
func firstOutside(a []graph.VID, lo, hi uint32) int {
	for j, v := range a {
		if v < lo || v >= hi {
			return j
		}
	}
	return -1
}

// SaveFile writes ih to path, atomically replacing any existing file.
func (ih *IHTL) SaveFile(path string) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		_, err := ih.WriteTo(w)
		return err
	})
}

// LoadFile reads an iHTL graph from path.
func LoadFile(path string) (*IHTL, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadIHTL(f)
}
