package blas

// The dispatch tier of the batched drivers: a batch of independent
// instances is partitioned into contiguous sub-ranges, and each
// goroutine that claims one sweeps the driver's range function over it
// with its own packing-buffer pair and scratch square. A batch of one
// part is the serial path: the calling goroutine sweeps the whole batch
// on its own working set. Per-instance math is untouched — every
// instance is processed by exactly one goroutine running exactly the
// same code on exactly the same data — so results stay bitwise
// identical to sequential execution at any worker count and any
// schedule.
//
// The machinery deliberately avoids par.For, which spawns goroutines
// on every call: batched drivers sit on the engine's measured path,
// whose contract is zero heap allocations per steady-state repetition.
// Workers here are persistent goroutines parked on a channel, jobs are
// descriptors holding value copies of the driver arguments, kept on a
// free list that no collection empties, and the range functions are
// top-level functions (a func field assignment of a top-level function
// does not allocate). After the first dispatch at a width has spawned
// its workers (warmup), a batch performs no heap allocations.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"lamb/internal/mat"
)

// batchBufs is one worker's working set: a packing-buffer pair sized
// like the pair the serial drivers use, plus the scratch square the
// SYRK/SYMM fused paths materialise symmetric blocks into.
type batchBufs struct {
	bufA    []float64
	bufB    []float64
	scratch *mat.Dense
}

func newBatchBufs() *batchBufs {
	return &batchBufs{
		bufA:    make([]float64, mc*kc),
		bufB:    make([]float64, kc*nc),
		scratch: mat.New(syrkBlock, syrkBlock),
	}
}

// bufSets provides the working set of the dispatching goroutine, which
// participates in its job like a worker. A set from the free list keeps
// it allocation-free (a stack-built struct would escape through the
// indirect run call), also after a garbage collection.
var bufSets = newFreeList(newBatchBufs)

// batchJob is one batched-driver invocation, partitioned into nparts
// contiguous instance sub-ranges handed out through the atomic part
// counter. It carries value copies of every argument any driver needs
// (each run function reads only its own fields), so neither the
// dispatch nor the workers capture caller state. Jobs are kept on a
// free list.
type batchJob struct {
	run func(bufs *batchBufs, j *batchJob, lo, hi int)

	transA, transB bool
	uplo           mat.Uplo
	alpha, beta    float64
	a, b, c        mat.Dense
	sa, sb, sc     int
	m, n, k        int
	count          int

	chunk  int
	nparts int
	next   atomic.Int64

	// Error funnel for PotrfBatch: the lowest failing instance wins, so
	// the reported instance matches what sequential execution (which
	// stops at the first failure) would name.
	errMu  sync.Mutex
	errIdx int
	err    error

	wg sync.WaitGroup
}

var batchJobs = newFreeList(func() *batchJob { return new(batchJob) })

// recordErr folds a per-instance failure into the job, keeping the
// lowest instance index (the one sequential execution would hit first).
func (j *batchJob) recordErr(i int, err error) {
	j.errMu.Lock()
	if j.err == nil || i < j.errIdx {
		j.errIdx, j.err = i, err
	}
	j.errMu.Unlock()
}

// batchWorkerCap bounds the persistent worker pool. Each worker owns a
// packing-buffer pair (~4.3 MiB), so the cap bounds pool memory; hosts
// with more cores simply hand each worker more instances.
const batchWorkerCap = 16

// batchWork carries jobs to the persistent workers. Sends are
// non-blocking: if every worker is busy the dispatching goroutine
// absorbs the unclaimed parts itself, so a saturated pool degrades to
// more caller work, never to a deadlock.
var batchWork = make(chan *batchJob, batchWorkerCap)

var batchSpawned atomic.Int32
var batchSpawnMu sync.Mutex

// ensureBatchWorkers lazily grows the persistent worker pool to at
// least n goroutines (capped at batchWorkerCap). Growth allocates the
// workers' buffer sets; it happens during the first parallel dispatch
// at a given width — warmup — after which dispatches are alloc-free.
func ensureBatchWorkers(n int) {
	if n > batchWorkerCap {
		n = batchWorkerCap
	}
	if int(batchSpawned.Load()) >= n {
		return
	}
	batchSpawnMu.Lock()
	for int(batchSpawned.Load()) < n {
		go batchWorkerLoop()
		batchSpawned.Add(1)
	}
	batchSpawnMu.Unlock()
}

func batchWorkerLoop() {
	bufs := newBatchBufs()
	for j := range batchWork {
		serveBatchParts(j, bufs)
		j.wg.Done()
	}
}

// serveBatchParts claims contiguous instance sub-ranges off the job's
// part counter until none remain. Both workers and the dispatching
// caller drain the same counter, so uneven part costs still balance.
func serveBatchParts(j *batchJob, bufs *batchBufs) {
	for {
		p := int(j.next.Add(1)) - 1
		if p >= j.nparts {
			return
		}
		lo := p * j.chunk
		hi := lo + j.chunk
		if hi > j.count {
			hi = j.count
		}
		j.run(bufs, j, lo, hi)
	}
}

// batchParts decides the partition width for a count-instance batch: up
// to workers() contiguous parts of at least two instances each, or 1
// (stay serial) when the worker cap or the batch is too small for
// parallelism to pay.
func batchParts(count int) int {
	nw := workers()
	if nw <= 1 || count < 4 {
		return 1
	}
	np := count / 2
	if np > nw {
		np = nw
	}
	if np > batchWorkerCap+1 {
		np = batchWorkerCap + 1
	}
	return np
}

// dispatch runs the job's count instances in nparts parts across the
// persistent workers with the calling goroutine participating, waits
// for completion and returns the job to the free list, so the caller
// must not touch it afterwards. With one part the caller sweeps the
// whole batch alone. It returns the failure a run function recorded,
// naming its instance, or nil.
func (j *batchJob) dispatch(nparts int) error {
	j.nparts = nparts
	j.chunk = (j.count + nparts - 1) / nparts
	j.next.Store(0)
	helpers := nparts - 1
	ensureBatchWorkers(helpers)
	j.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		select {
		case batchWork <- j:
		default:
			// Pool saturated: the caller serves this helper's share.
			j.wg.Done()
		}
	}
	bufs := bufSets.get()
	serveBatchParts(j, bufs)
	bufSets.put(bufs)
	j.wg.Wait()
	var err error
	if j.err != nil {
		err = fmt.Errorf("%w (batch instance %d)", j.err, j.errIdx)
	}
	batchJobs.put(j)
	return err
}

// newBatchJob fetches a count-instance job from the free list with the
// error funnel reset. The matrix-header and scalar fields are always
// overwritten by the caller for the fields its run function reads.
func newBatchJob(run func(*batchBufs, *batchJob, int, int), count int) *batchJob {
	j := batchJobs.get()
	j.run = run
	j.count = count
	j.err = nil
	j.errIdx = 0
	return j
}
