package guestos

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"squeezy/internal/costmodel"
	"squeezy/internal/hostmem"
	"squeezy/internal/sim"
	"squeezy/internal/units"
	"squeezy/internal/vmm"
)

// maxFuzzOps bounds one input's operation count, so every input runs
// in milliseconds however long the fuzzer makes it.
const maxFuzzOps = 64

// FuzzKernelOps decodes bytes into guest kernel operations, two bytes
// (opcode, argument) each, and checks the kernel after every one:
// CheckInvariants must pass, and the reverse map over the whole span
// must hold exactly the chunks reachable from live processes and
// cached files. Any byte string decodes to valid operations, so no
// input may panic. The seed corpus is testdata/fuzz/FuzzKernelOps.
func FuzzKernelOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2*maxFuzzOps {
			data = data[:2*maxFuzzOps]
		}
		s := sim.NewScheduler()
		vm := vmm.New("fuzz", s, costmodel.Default(), hostmem.New(0), 4)
		k := NewKernel(vm, Config{
			BootBytes:           units.BlockSize,
			MovableBytes:        2 * units.BlockSize,
			KernelResidentBytes: 8 * units.MiB,
		})
		k.OnlineAllMovable()
		files := []*CachedFile{k.File("f0", 0), k.File("f1", 0)}
		var procs []*Process
		pick := func(arg int) (*Process, int) {
			if len(procs) == 0 {
				procs = append(procs, k.Spawn("p"))
			}
			i := arg % len(procs)
			return procs[i], i
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%8, int(data[i+1])
			switch op {
			case 0:
				procs = append(procs, k.Spawn("p"))
			case 1:
				p, _ := pick(arg)
				k.TouchAnon(p, int64(arg%16+1)*64*units.KiB, 0)
			case 2:
				p, _ := pick(arg)
				k.TouchAnon(p, int64(arg%32+1)*units.MiB, HugeOrder)
			case 3:
				p, _ := pick(arg)
				k.TouchFile(p, files[arg&1], int64(arg%48+1)*units.MiB)
			case 4:
				p, _ := pick(arg)
				k.FreeAnon(p, int64(arg%16+1)*units.MiB)
			case 5:
				p, j := pick(arg)
				k.Exit(p)
				procs = append(procs[:j], procs[j+1:]...)
			case 6:
				z := k.Movable
				if arg&1 == 1 {
					z = k.Normal
				}
				k.ScrambleFreeLists(z, rand.New(rand.NewPCG(uint64(arg), 0)))
			case 7:
				offlineCycle(k, arg)
			}
			if err := checkReachable(k); err != nil {
				t.Fatalf("op %d (%d, %d): %v", i/2, op, arg, err)
			}
		}
	})
}

// offlineCycle runs the hot-unplug path on one Movable block: online it
// if it is offline; otherwise isolate it, migrate every chunk
// ChunksInRange finds there, and either finish the offline or (on a
// failed migration, or when arg says so) return the isolated gaps.
func offlineCycle(k *Kernel, arg int) {
	z := k.Movable
	b := arg % z.Blocks()
	start, count := z.BlockRange(b)
	if !z.BlockIsOnline(b) {
		k.VM.Commit(count)
		z.OnlineBlock(b)
		return
	}
	z.IsolateBlock(b)
	migrated := true
	for _, c := range k.ChunksInRange(start, count) {
		if _, _, ok := k.MigrateChunk(c); !ok {
			migrated = false
			break
		}
	}
	if !migrated || arg&8 != 0 {
		k.ReturnIsolatedGaps(z, start, count)
		return
	}
	z.FinishOffline(b)
	k.ReleaseRange(start, count)
	k.VM.Uncommit(count)
}

// checkReachable runs CheckInvariants and requires ChunksInRange over
// the whole span to equal, in PFN order, the chunks owned by the live
// processes and the cached files.
func checkReachable(k *Kernel) error {
	if err := k.CheckInvariants(); err != nil {
		return err
	}
	var want []*Chunk
	for _, p := range k.procs {
		want = append(want, p.anonChunks...)
	}
	for _, f := range k.files {
		want = append(want, f.chunks...)
	}
	slices.SortFunc(want, func(a, b *Chunk) int { return int(a.PFN - b.PFN) })
	got := k.ChunksInRange(0, k.nextPFN)
	if !slices.Equal(got, want) {
		return fmt.Errorf("reverse map holds %d chunks, owners hold %d", len(got), len(want))
	}
	return nil
}
