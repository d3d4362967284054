// Checkpoint spool: the daemon's crash-tolerance store. Every running
// job persists its latest analytics.Checkpoint — plus enough header to
// reconstruct the job — as one file per job, written atomically
// (temp → fsync → rename via internal/atomicio), so a kill -9 at any
// instant leaves either the previous complete snapshot or the new one.
// On startup the spool is scanned: running records resume bit-for-bit
// (the analytics Resume contract over an engine that is reproducible
// at a fixed worker count, as every engine is), done
// records are served as completed jobs, and undecodable files — torn
// writes from a non-atomic writer, disk corruption — are quarantined
// with a counter, never a panic.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"ihtl/internal/analytics"
	"ihtl/internal/atomicio"
)

var spoolMagic = [8]byte{'I', 'H', 'T', 'L', 'S', 'P', 'L', '1'}

const (
	spoolVersion = 1

	spoolStateRunning = 1
	spoolStateDone    = 2

	// Header length bounds: a corrupt length field must not drive a
	// multi-gigabyte allocation before validation fails.
	spoolMaxID   = 256
	spoolMaxAlgo = 64
	spoolMaxK    = 1 << 20
)

// JobOptions is the per-job slice of analytics.PageRankOptions the API
// exposes; zero values select the analytics defaults.
type JobOptions struct {
	Damping              float64 `json:"damping,omitempty"`
	MaxIters             int     `json:"max_iters,omitempty"`
	Tol                  float64 `json:"tol,omitempty"`
	RedistributeDangling bool    `json:"redistribute_dangling,omitempty"`
}

// jobSpec is everything needed to re-create a job from its spool
// record alone: the warm-restart path runs on a fresh process with no
// memory of the original request.
type jobSpec struct {
	ID      string
	Algo    string   // "pagerank" or "ppr"
	Sources []uint32 // original vertex IDs; empty for pagerank
	Opts    JobOptions
	// Workers is the pool width the checkpointed trajectory is pinned
	// to; resuming with a different width still converges but forfeits
	// the bit-for-bit contract, so the scanner surfaces a mismatch.
	Workers int
}

// spoolRecord is one job's durable state.
type spoolRecord struct {
	Spec  jobSpec
	State uint32 // spoolStateRunning or spoolStateDone
	// Ckpt is the latest snapshot of a running job, or the final
	// ranks (at the final iteration) of a done one.
	Ckpt *analytics.Checkpoint
}

func encodeSpool(w io.Writer, r *spoolRecord) error {
	if len(r.Spec.ID) > spoolMaxID || len(r.Spec.Algo) > spoolMaxAlgo || len(r.Spec.Sources) > spoolMaxK {
		return fmt.Errorf("serve: spool record fields out of bounds")
	}
	if _, err := w.Write(spoolMagic[:]); err != nil {
		return err
	}
	head := []any{
		uint32(spoolVersion), r.State, uint32(r.Spec.Workers),
		uint32(len(r.Spec.ID)), []byte(r.Spec.ID),
		uint32(len(r.Spec.Algo)), []byte(r.Spec.Algo),
		uint32(len(r.Spec.Sources)), r.Spec.Sources,
		r.Spec.Opts.Damping, int64(r.Spec.Opts.MaxIters), r.Spec.Opts.Tol,
	}
	for _, f := range head {
		if err := binary.Write(w, binary.LittleEndian, f); err != nil {
			return err
		}
	}
	var red uint8
	if r.Spec.Opts.RedistributeDangling {
		red = 1
	}
	if err := binary.Write(w, binary.LittleEndian, red); err != nil {
		return err
	}
	return analytics.EncodeCheckpoint(w, r.Ckpt)
}

func decodeSpool(r io.Reader) (*spoolRecord, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("serve: spool magic: %w", err)
	}
	if magic != spoolMagic {
		return nil, fmt.Errorf("serve: bad spool magic %q", magic[:])
	}
	var version, state, workers, idLen uint32
	for _, f := range []*uint32{&version, &state, &workers, &idLen} {
		if err := binary.Read(r, binary.LittleEndian, f); err != nil {
			return nil, fmt.Errorf("serve: spool header: %w", err)
		}
	}
	if version != spoolVersion {
		return nil, fmt.Errorf("serve: unsupported spool version %d", version)
	}
	if state != spoolStateRunning && state != spoolStateDone {
		return nil, fmt.Errorf("serve: bad spool state %d", state)
	}
	if idLen > spoolMaxID {
		return nil, fmt.Errorf("serve: spool id length %d out of bounds", idLen)
	}
	id := make([]byte, idLen)
	if _, err := io.ReadFull(r, id); err != nil {
		return nil, fmt.Errorf("serve: spool id: %w", err)
	}
	var algoLen uint32
	if err := binary.Read(r, binary.LittleEndian, &algoLen); err != nil {
		return nil, fmt.Errorf("serve: spool header: %w", err)
	}
	if algoLen > spoolMaxAlgo {
		return nil, fmt.Errorf("serve: spool algo length %d out of bounds", algoLen)
	}
	algo := make([]byte, algoLen)
	if _, err := io.ReadFull(r, algo); err != nil {
		return nil, fmt.Errorf("serve: spool algo: %w", err)
	}
	var k uint32
	if err := binary.Read(r, binary.LittleEndian, &k); err != nil {
		return nil, fmt.Errorf("serve: spool header: %w", err)
	}
	if k > spoolMaxK {
		return nil, fmt.Errorf("serve: spool source count %d out of bounds", k)
	}
	sources := make([]uint32, k)
	if err := binary.Read(r, binary.LittleEndian, sources); err != nil {
		return nil, fmt.Errorf("serve: spool sources: %w", err)
	}
	rec := &spoolRecord{State: state, Spec: jobSpec{
		ID: string(id), Algo: string(algo), Sources: sources, Workers: int(workers),
	}}
	var maxIters int64
	var red uint8
	if err := binary.Read(r, binary.LittleEndian, &rec.Spec.Opts.Damping); err != nil {
		return nil, fmt.Errorf("serve: spool options: %w", err)
	}
	if err := binary.Read(r, binary.LittleEndian, &maxIters); err != nil {
		return nil, fmt.Errorf("serve: spool options: %w", err)
	}
	if err := binary.Read(r, binary.LittleEndian, &rec.Spec.Opts.Tol); err != nil {
		return nil, fmt.Errorf("serve: spool options: %w", err)
	}
	if err := binary.Read(r, binary.LittleEndian, &red); err != nil {
		return nil, fmt.Errorf("serve: spool options: %w", err)
	}
	rec.Spec.Opts.MaxIters = int(maxIters)
	rec.Spec.Opts.RedistributeDangling = red == 1
	ckpt, err := analytics.DecodeCheckpoint(r)
	if err != nil {
		return nil, fmt.Errorf("serve: spool checkpoint: %w", err)
	}
	// A spool record owns its file: trailing bytes mean a mis-write.
	var one [1]byte
	if n, err := r.Read(one[:]); n != 0 || !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("serve: trailing bytes after spool checkpoint")
	}
	rec.Ckpt = ckpt
	return rec, nil
}

func spoolPath(dir, id string) string { return filepath.Join(dir, id+".spl") }

// writeSpool persists one record crash-consistently.
func writeSpool(dir string, rec *spoolRecord) error {
	return atomicio.WriteFile(spoolPath(dir, rec.Spec.ID), func(w io.Writer) error {
		return encodeSpool(w, rec)
	})
}

// scanSpool loads every decodable record from dir and quarantines the
// rest by renaming them to <name>.bad (so a persistent corruption is
// inspected once, not re-logged every boot). It returns the records
// and the number quarantined.
func scanSpool(dir string) ([]*spoolRecord, int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	var recs []*spoolRecord
	bad := 0
	for _, ent := range ents {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".spl") {
			continue
		}
		path := filepath.Join(dir, ent.Name())
		rec, err := readSpoolFile(path)
		if err != nil {
			bad++
			os.Rename(path, path+".bad") //nolint:errcheck // quarantine is best-effort
			continue
		}
		recs = append(recs, rec)
	}
	return recs, bad, nil
}

func readSpoolFile(path string) (*spoolRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return decodeSpool(f)
}
