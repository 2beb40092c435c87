package extsort

import (
	"errors"
	"fmt"
	"io"
	"os"

	"hetsort/internal/cluster"
	"hetsort/internal/diskio"
	"hetsort/internal/polyphase"
	"hetsort/internal/record"
	"hetsort/internal/trace"
)

// tagRoundBase tags the step-4 exchange traffic: round t
// uses tagRoundBase + t, so late rounds queue behind earlier ones on a
// shared link (per-link FIFO) without inter-round barriers.
const tagRoundBase = 400

// hier reports whether this run routes steps 2 and 4 through the
// radix-r hierarchy.
func (w *worker) hier() bool {
	return w.cfg.Topology != TopologyFlat && w.n.P() > 1
}

// collRadix is the fan-in of this run's collective tree.
func (w *worker) collRadix() int {
	return collectiveRadix(w.n.P(), w.cfg.Topology, w.cfg.Radix)
}

// The step-2 collectives and the inter-step barriers dispatch on the
// topology: hierarchical runs route every collective through the
// radix-r tree so no node's fan-in exceeds r−1, flat runs keep
// Algorithm 1's star.  TreeGather delivers the root the exact per-rank
// slices of the flat Gather, so the strategies built on these wrappers
// produce bit-identical pivots on either topology.

func (w *worker) barrier(tag int) error {
	if w.hier() {
		return w.n.TreeBarrier(w.collRadix(), tag)
	}
	return w.n.Barrier(tag)
}

func (w *worker) gather(tag int, keys []record.Key) ([][]record.Key, error) {
	if w.hier() {
		return w.n.TreeGather(w.collRadix(), tag, keys)
	}
	return w.n.Gather(0, tag, keys)
}

func (w *worker) bcast(tag int, keys []record.Key) ([]record.Key, error) {
	if w.hier() {
		return w.n.TreeBcast(w.collRadix(), tag, keys)
	}
	return w.n.Bcast(0, tag, keys)
}

func (w *worker) allGather(tag int, keys []record.Key) ([]record.Key, error) {
	if w.hier() {
		return w.n.TreeAllGather(w.collRadix(), tag, keys)
	}
	return w.n.AllGather(tag, keys)
}

// bucketName is the file holding this node's round-t bucket for
// destination d: round 0 reads straight from the step-3 segment files,
// later rounds from the merged intermediates.
func (w *worker) bucketName(t, d int) string {
	if t == 0 {
		return w.segName(d)
	}
	return fmt.Sprintf("hetsort.rt%d.d%d", t, d)
}

// hierRoundPrefix prefixes every intermediate bucket file, for the
// phase-5 sweep that clears stale intermediates a recovered run may
// have left behind.
const hierRoundPrefix = "hetsort.rt"

// levels returns this run's refinement levels.  The flat exchange, and
// any p = 1 run, is the single round [p, 1].
func (w *worker) levels() []int {
	if !w.hier() {
		return []int{w.n.P(), 1}
	}
	return topoLevels(w.n.P(), w.cfg.Topology, w.cfg.Radix)
}

// selfLink reports whether the node's own bucket travels over the
// self-link like any other (the flat exchange: segment i lands in
// recv<i> on node i, as in Algorithm 1) instead of staying local (tree
// and grid).
func (w *worker) selfLink() bool { return !w.hier() }

// senders returns, ascending, the nodes whose streams this node merges
// in the round refining s into sub — itself included on the self-link.
func (w *worker) senders(s, sub int) []int {
	return roundInNeighbors(w.n.ID(), s, sub, w.n.P(), w.selfLink())
}

// fanIn is a round's stream count at this node: its senders plus, when
// it stays local, its own bucket.
func (w *worker) fanIn(senders []int) int {
	if w.selfLink() {
		return len(senders)
	}
	return len(senders) + 1
}

// finalSenders returns the senders of the final round.
func (w *worker) finalSenders() []int {
	lv := w.levels()
	return w.senders(lv[len(lv)-2], 1)
}

// finalInputs recomputes the final-merge input files — the node's own
// last-round bucket when it stays local, plus one receive file per
// final-round sender — without executing any round.  A resumed node
// that already committed phase 4 uses this to locate the durable
// inputs its manifest listed.
func (w *worker) finalInputs() []string {
	var names []string
	if !w.selfLink() {
		names = append(names, w.bucketName(len(w.levels())-2, w.n.ID()))
	}
	for _, i := range w.finalSenders() {
		names = append(names, w.recvName(i))
	}
	return names
}

// fuseFits reports whether the fused final round fits memory: one
// message buffer and one spill-writer block per stream of the fan-in
// (spill writers only run under Checkpoint, but are budgeted
// conservatively), the output writer's block, and the own-bucket
// reader's block when that bucket stays local.  The flat fan-in is p;
// the hierarchical one is O(r), so at large p it fits where the flat
// fan-in cannot.
func (c Config) fuseFits(fanIn int, ownLocal bool) bool {
	own := 0
	if ownLocal {
		own = c.BlockKeys
	}
	return (c.MessageKeys+c.BlockKeys)*fanIn+c.BlockKeys+own <= c.MemoryKeys
}

// redistribute is step 4, run as the rounds of a multi-pass all-to-all.
// Round t refines rank blocks of lv[t] nodes into sub-blocks of
// lv[t+1]: every node streams each of its buckets to the representative
// of the destination's sub-block (routeStep) and merges the incoming
// streams per destination with its own bucket, so after the last round
// (sub-blocks of 1) node d holds exactly partition d.  The flat
// topology is the single round [p, 1] with the self-link in use:
// segment j travels to node j, and the final round reads all p streams
// in rank order — Algorithm 1's step 4.  Tree and grid run ⌈log_r p⌉
// rounds of O(r) fan-in and keep their own sub-block's buckets local.
// Each round is send-all-then-receive-all on its own tag; buffered
// links make sends non-blocking and per-link FIFO keeps rounds ordered,
// so no inter-round barrier is needed and no node ever holds more than
// its round fan-in of open streams.
//
// With Pipeline, a needy node fuses step 5 into the final round: the
// incoming streams are merged straight into the output file while the
// messages arrive, and the fused work (receive, merge compute, output
// writes) is attributed to step 4's window.  The node falls back to
// spooling when the fan-in's buffers would not fit in memory.
//
// All nodes run all rounds — on a resumed run the nodes already past
// phase 4 act as pure forwarders, re-sending the needy destinations'
// data from their retained segment files — and both senders and
// receivers apply the same needy filter, so only lost partitions flow.
// Returns the final-merge input files and their key counts (for the
// phase-4 manifest), and whether the output was already merged
// in-stream.
func (w *worker) redistribute(needy []bool) (inputs []string, counts []int64, merged bool, err error) {
	n := w.n
	p, id := n.P(), n.ID()
	pipelined := w.cfg.Pipeline && needy[id]
	if fan := w.fanIn(w.finalSenders()); pipelined && !w.cfg.fuseFits(fan, !w.selfLink()) {
		pipelined = false
		n.TraceEvent(trace.Pipeline, "fallback",
			fmt.Sprintf("fan-in %d x %d-key messages exceeds MemoryKeys=%d", fan, w.cfg.MessageKeys, w.cfg.MemoryKeys))
	}
	lv := w.levels()
	T := len(lv) - 1
	n.Metrics().Gauge("redist.rounds").Set(float64(T))
	maxFan := 1
	for t := 0; t < T; t++ {
		s, sub := lv[t], lv[t+1]
		tag := tagRoundBase + t
		endRound := n.TracePhase(fmt.Sprintf("%s/round%d", StepNames[3], t))

		// Send half: every bucket whose destination's sub-block is led
		// elsewhere (or, on the self-link, by this node) streams to
		// that sub-block's representative, destinations in ascending
		// order (the receivers drain in the same order; per-link FIFO
		// aligns the frames).
		bs := id / s * s
		hi := bs + s
		if hi > p {
			hi = p
		}
		var sent int64
		for lo := bs; lo < hi; lo += sub {
			subEnd := lo + sub
			if subEnd > hi {
				subEnd = hi
			}
			rep := routeStep(id, lo, s, sub, p)
			if rep == id && !w.selfLink() {
				continue // own sub-block: buckets stay local
			}
			for d := lo; d < subEnd; d++ {
				if !needy[d] {
					continue
				}
				k, serr := w.sendBucket(rep, tag, t, d)
				if serr != nil {
					endRound()
					return nil, nil, false, serr
				}
				sent += k
			}
		}
		n.Metrics().Counter(fmt.Sprintf("redist.r%d.sent.keys", t)).Add(sent)

		// Receive half: merge own bucket with the senders' streams for
		// every needy destination of the node's new sub-block.
		nbrs := w.senders(s, sub)
		fan := w.fanIn(nbrs)
		if fan > maxFan {
			maxFan = fan
		}
		n.Metrics().Gauge(fmt.Sprintf("redist.r%d.fanin", t)).Set(float64(fan))
		if sub == 1 {
			// Final round: the destination is the node itself.
			if needy[id] {
				inputs, counts, err = w.finalRound(t, tag, nbrs, pipelined)
				if err != nil {
					endRound()
					return nil, nil, false, err
				}
				merged = pipelined
			}
		} else {
			slo := id / sub * sub
			sEnd := slo + sub
			if sEnd > hi {
				sEnd = hi
			}
			for d := slo; d < sEnd; d++ {
				if !needy[d] {
					continue
				}
				if err := w.mergeRoundDest(t, tag, d, nbrs); err != nil {
					endRound()
					return nil, nil, false, err
				}
			}
		}
		n.Metrics().Gauge(fmt.Sprintf("redist.r%d.queue.hwm", t)).Set(float64(n.MaxInQueueHWM()))
		endRound()
	}
	n.Metrics().Gauge("redist.fanin.streams").Set(float64(maxFan))
	if !needy[id] {
		// A forwarder's final-merge inputs are the durable files its
		// earlier phase-4 manifest listed.
		inputs = w.finalInputs()
	}
	return inputs, counts, merged, nil
}

// removeBucket applies the retention rules after a bucket was consumed
// (sent or merged forward): intermediates go unless debugging keeps
// them; round-0 buckets are the step-3 segments, retained under
// Checkpoint until phase 5 commits so a recovered peer can ask for them
// again.
func (w *worker) removeBucket(t, d int) error {
	if w.cfg.KeepIntermediates || (t == 0 && w.cfg.Checkpoint) {
		return nil
	}
	if err := w.n.FS().Remove(w.bucketName(t, d)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// sendBucket streams this node's round-t bucket for destination d to
// node `to` in MessageKeys-sized messages, terminated by a zero-length
// sentinel, and returns the key count sent.  Payloads are pooled
// buffers whose ownership transfers with the message (SendOwned), so
// the exchange allocates nothing steady-state and self-sends move no
// bytes at all.  A node resumed past phase 4 traces each retained
// segment it re-sends.
func (w *worker) sendBucket(to, tag, t, d int) (int64, error) {
	n, cfg := w.n, w.cfg
	if t == 0 && w.plan != nil && w.plan.Done[n.ID()] >= 4 {
		n.TraceEvent(trace.Recovery, "resend", fmt.Sprintf("seg%d -> node %d", d, to))
	}
	name := w.bucketName(t, d)
	f, err := n.FS().Open(name)
	if err != nil {
		return 0, err
	}
	r := diskio.NewBlockReader(f, cfg.BlockKeys, n.Acct(), w.overlap())
	var sent int64
	for {
		buf := n.AcquireBuf(cfg.MessageKeys)
		cnt, rerr := r.ReadKeys(buf)
		if cnt > 0 {
			if err := n.SendOwned(to, tag, buf[:cnt]); err != nil {
				r.Release()
				f.Close()
				return sent, err
			}
			sent += int64(cnt)
		} else {
			n.ReleaseBuf(buf)
		}
		if rerr == io.EOF || cnt == 0 {
			break
		}
		if rerr != nil {
			r.Release()
			f.Close()
			return sent, rerr
		}
	}
	r.Release()
	if err := f.Close(); err != nil {
		return sent, err
	}
	if err := n.SendOwned(to, tag, nil); err != nil {
		return sent, err
	}
	return sent, w.removeBucket(t, d)
}

// mergeRoundDest merges this node's round-t bucket for destination d
// with the per-neighbor incoming streams into the round-(t+1) bucket.
// With no in-neighbors the bucket advances by rename — except a
// round-0 segment that checkpointing must retain, which is copied with
// counted I/O instead.
func (w *worker) mergeRoundDest(t, tag, d int, nbrs []int) error {
	n, cfg := w.n, w.cfg
	old, next := w.bucketName(t, d), w.bucketName(t+1, d)
	if len(nbrs) == 0 {
		if t == 0 && (cfg.Checkpoint || cfg.KeepIntermediates) {
			return polyphase.MergeFiles(w.polyCfg("hetsort.s4."), []string{old}, next)
		}
		return n.FS().Rename(old, next)
	}
	f, err := n.FS().Open(old)
	if err != nil {
		return err
	}
	r := diskio.NewBlockReader(f, cfg.BlockKeys, n.Acct(), w.overlap())
	streams := make([]*cluster.Stream, len(nbrs))
	srcs := make([]polyphase.MergeSource, 0, len(nbrs)+1)
	srcs = append(srcs, r)
	for i, nb := range nbrs {
		streams[i] = n.OpenStream(nb, tag)
		srcs = append(srcs, streams[i])
	}
	closeAll := func() {
		for _, s := range streams {
			s.Close()
		}
		r.Release()
		f.Close()
	}
	outFile, err := n.FS().Create(next)
	if err != nil {
		closeAll()
		return err
	}
	out := diskio.NewBlockWriter(outFile, cfg.BlockKeys, n.Acct(), w.overlap())
	if err := polyphase.MergeOpt(srcs, n, out.WriteKeys, polyphase.MergeOptions{NoGallop: w.cfg.NoGalloping}); err != nil {
		out.Close()
		outFile.Close()
		closeAll()
		return err
	}
	closeAll()
	if err := out.Close(); err != nil {
		outFile.Close()
		return err
	}
	if err := outFile.Close(); err != nil {
		return err
	}
	return w.removeBucket(t, d)
}

// finalRound receives the final round's streams, senders in rank
// order.  Spooled (fused false), each stream drains to its receive file
// in turn and step 5 merges the files.  Fused, the own-bucket reader
// and all streams merge straight into the output file (steps 4+5
// fused), teeing the streams to durable receive files when
// checkpointing.  A local own bucket is the first input.  Returns the
// manifest inputs and counts.
func (w *worker) finalRound(t, tag int, senders []int, fused bool) (inputs []string, counts []int64, err error) {
	n, cfg := w.n, w.cfg
	var srcs []polyphase.MergeSource
	var ownF diskio.File
	var ownR diskio.BlockReader
	streams := make([]*cluster.Stream, len(senders))
	spillFiles := make([]diskio.File, len(senders))
	spillW := make([]diskio.BlockWriter, len(senders))
	closeSpill := func(i int) error {
		var err error
		if spillW[i] != nil {
			err = spillW[i].Close()
		}
		if spillFiles[i] != nil {
			if cerr := spillFiles[i].Close(); err == nil {
				err = cerr
			}
		}
		spillW[i], spillFiles[i] = nil, nil
		return err
	}
	defer func() {
		for _, s := range streams {
			if s != nil {
				s.Close()
			}
		}
		if ownR != nil {
			ownR.Release()
			ownF.Close()
		}
		for i := range spillW {
			if cerr := closeSpill(i); cerr != nil && err == nil {
				err = cerr
			}
		}
	}()
	if !w.selfLink() {
		own := w.bucketName(t, n.ID())
		ownKeys, err := diskio.CountKeys(n.FS(), own)
		if err != nil {
			return nil, nil, err
		}
		inputs, counts = []string{own}, []int64{ownKeys}
		if fused {
			if ownF, err = n.FS().Open(own); err != nil {
				return nil, nil, err
			}
			ownR = diskio.NewBlockReader(ownF, cfg.BlockKeys, n.Acct(), w.overlap())
			srcs = append(srcs, ownR)
		}
	}
	for i, nb := range senders {
		s := n.OpenStream(nb, tag)
		streams[i] = s
		if !fused || cfg.Checkpoint {
			sf, err := n.FS().Create(w.recvName(nb))
			if err != nil {
				return nil, nil, err
			}
			wr := diskio.NewBlockWriter(sf, cfg.BlockKeys, n.Acct(), w.overlap())
			spillFiles[i], spillW[i] = sf, wr
			s.Tee = wr.WriteKeys
		}
		if fused {
			srcs = append(srcs, s)
			continue
		}
		for {
			if err := s.Fill(); err == io.EOF {
				break
			} else if err != nil {
				return nil, nil, err
			}
			s.Discard(len(s.Buffered()))
		}
		if err := closeSpill(i); err != nil {
			return nil, nil, err
		}
	}
	if fused {
		mode := "fused"
		if cfg.Checkpoint {
			mode = "spill"
		}
		n.TraceEvent(trace.Pipeline, mode, fmt.Sprintf("fan-in:%d msg:%d", w.fanIn(senders), cfg.MessageKeys))
		outFile, err := n.FS().Create(w.output)
		if err != nil {
			return nil, nil, err
		}
		out := diskio.NewBlockWriter(outFile, cfg.BlockKeys, n.Acct(), w.overlap())
		if err := polyphase.MergeOpt(srcs, n, out.WriteKeys, polyphase.MergeOptions{NoGallop: cfg.NoGalloping}); err != nil {
			out.Close()
			outFile.Close()
			return nil, nil, err
		}
		if err := out.Close(); err != nil {
			outFile.Close()
			return nil, nil, err
		}
		if err := outFile.Close(); err != nil {
			return nil, nil, err
		}
	}
	for i, s := range streams {
		inputs = append(inputs, w.recvName(senders[i]))
		counts = append(counts, s.Received())
	}
	return inputs, counts, nil
}

// cleanStaleRounds removes any leftover intermediate bucket files —
// a crashed hierarchical run can orphan rt files for destinations that
// were no longer needy on the retry.  Swept once, after phase 5
// commits.
func (w *worker) cleanStaleRounds() error {
	names, err := w.n.FS().Names()
	if err != nil {
		return err
	}
	for _, name := range names {
		if len(name) >= len(hierRoundPrefix) && name[:len(hierRoundPrefix)] == hierRoundPrefix {
			if err := w.n.FS().Remove(name); err != nil && !errors.Is(err, os.ErrNotExist) {
				return err
			}
		}
	}
	return nil
}
