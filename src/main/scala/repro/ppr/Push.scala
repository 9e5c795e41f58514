package repro.ppr

import repro.graph.LocalGraph

/** Result of a push run: the array the credit sink accumulated into (per-node
  * estimates, per-child estimates or per-node GBP credits), per-node leftover
  * residues, plus the number of push operations performed.
  */
final case class PushResult(
    est: Array[Double],
    residue: Array[Double],
    pushes: Long,
) {

  /** Σ_v r(v), summed in node order on first read: an O(n) pass that only
    * FORA and GFRA (and tests) pay for.
    */
  lazy val rsum: Double = {
    var s = 0.0
    var i = 0
    while (i < residue.length) { s += residue(i); i += 1 }
    s
  }
}

/** The two push kernels every PPR engine here is built from: Forward-Push
  * (Andersen et al. [4]), grouped by GFP (Alg. 2), and Backward-Push
  * (Lofgren–Goel [50]), grouped by GBP (Alg. 3).
  *
  * Both start from seed residues (`seedResidue(i)` at node `seeds(i)`; seeds
  * enter the FIFO queue in the given order, which callers keep ascending) and
  * process nodes until every residue is below the threshold. Each processed
  * node v with residue r is handed to the credit sink once, as `credit(v, r)`;
  * the sink decides where α·r goes and writes into `est`, which the result
  * returns. The deadline is checked every 1024 queue pops.
  *
  * The queue is a ring of unboxed ints, the edge loop reads the CSR arrays
  * directly and makes no call, and thresholds and shares read
  * `LocalGraph.outDegD` (int → double is exact, so every product and quotient
  * keeps its bits). Queue membership lives in a copy of the out-degrees:
  * a queued node's entry holds +∞ (forward) or −d(u) (backward) until it is
  * popped, so one load per edge gives both the threshold and the flag.
  *
  * A call borrows its three working arrays from the graph's lenders: the
  * degree copy (`LocalGraph.borrowDegrees`), the ring (`borrowRing`) and the
  * length-n `residue` (`borrowResidue`, all zeros before the seeds). A call
  * that completes has popped every queued node, so it hands the copy back
  * equal to `outDegD`, and hands back the ring at whatever size it grew to;
  * a call that throws drops all three. The result returns the residue: a
  * caller hands it back with `LocalGraph.returnResidue` after its last read
  * of it, and drops it when it keeps it or passes it on (DESIGN.md,
  * layering note).
  */
object Push {

  /** Forward push: while some node has `r(v) > d(v)·rmax`, credit v and
    * spread (1-α)·r(v) evenly over v's out-neighbours. The invariant of
    * Eq. (3) holds throughout.
    */
  def forward(g: LocalGraph, seeds: Array[Int], seedResidue: Array[Double],
              alpha: Double, rmax: Double, deadline: Deadline,
              est: Array[Double])(credit: (Int, Double) => Unit): PushResult = {
    require(rmax > 0, s"forward push needs rmax > 0, got $rmax")
    val residue = seeded(g, seeds, seedResidue)
    val deg     = g.outDegD
    // deg, except +∞ at a queued node: then ru > dq(u)·rmax is never true.
    val dq      = g.borrowDegrees()
    val off     = g.outOff
    val adj     = g.outAdj
    // FIFO of node ids: ring(head & mask) until ring(tail & mask), head and
    // tail only growing, in a borrowed ring of any power-of-two size. A
    // repeated seed enters once per copy, so the ring may need more than n
    // slots.
    var ring = g.borrowRing(ringSize(seeds.length))
    var head = 0
    var tail = 0
    var i = 0
    while (i < seeds.length) {
      val v = seeds(i)
      // deg, not dq: a repeated seed enters once per copy.
      if (residue(v) > deg(v) * rmax) { ring(tail) = v; tail += 1; dq(v) = Double.PositiveInfinity }
      i += 1
    }
    var pushes = 0L
    var pops   = 0
    while (head != tail) {
      if ((pops & 0x3ff) == 0) deadline.check()
      pops += 1
      val vk = ring(head & (ring.length - 1)); head += 1
      val dv = deg(vk)
      dq(vk) = dv
      val r  = residue(vk)
      if (r > dv * rmax) {
        credit(vk, r)
        val share = (1.0 - alpha) * r / dv
        residue(vk) = 0.0
        var e = off(vk); val end = off(vk + 1)
        pushes += end - e
        // Room for every neighbour up front, so the edge loop makes no call.
        if (tail - head + (end - e) > ring.length) {
          ring = unwrapped(ring, head, tail, end - e); tail -= head; head = 0
        }
        val mask = ring.length - 1
        while (e < end) {
          val u  = adj(e)
          val ru = residue(u) + share
          residue(u) = ru
          // Rarely true, so it predicts well.
          if (ru > dq(u) * rmax) {
            ring(tail & mask) = u; tail += 1; dq(u) = Double.PositiveInfinity
          }
          e += 1
        }
      }
    }
    g.returnDegrees(dq)
    g.returnRing(ring)
    PushResult(est, residue, pushes)
  }

  /** Backward push along in-edges: while some node has `r(v) > rbmax`,
    * credit v and add (1-α)·r(v)/d(u) to each in-neighbour u (the r.h.s.
    * graph of Fig. 5). Crediting α·r(v) approximates π(·, t) for a seed t.
    */
  def backward(g: LocalGraph, seeds: Array[Int], seedResidue: Array[Double],
               alpha: Double, rbmax: Double, deadline: Deadline,
               est: Array[Double])(credit: (Int, Double) => Unit): PushResult = {
    require(rbmax > 0, s"backward push needs rbmax > 0, got $rbmax")
    val residue = seeded(g, seeds, seedResidue)
    val deg     = g.outDegD
    // deg, except −d(u) at a queued node: out-degrees are ≥ 1, so the sign
    // is the flag and |dq(u)| the degree.
    val dq      = g.borrowDegrees()
    val off     = g.inOff
    val adj     = g.inAdj
    // FIFO of node ids: ring(head & mask) until ring(tail & mask), head and
    // tail only growing, in a borrowed ring of any power-of-two size. A
    // repeated seed enters once per copy, so the ring may need more than n
    // slots.
    var ring = g.borrowRing(ringSize(seeds.length))
    var head = 0
    var tail = 0
    var i = 0
    while (i < seeds.length) {
      val v = seeds(i)
      if (residue(v) > rbmax) { ring(tail) = v; tail += 1; dq(v) = -deg(v) }
      i += 1
    }
    var pushes = 0L
    var pops   = 0
    while (head != tail) {
      if ((pops & 0x3ff) == 0) deadline.check()
      pops += 1
      val vk = ring(head & (ring.length - 1)); head += 1
      dq(vk) = deg(vk)
      val r  = residue(vk)
      if (r > rbmax) {
        credit(vk, r)
        val spread = (1.0 - alpha) * r
        residue(vk) = 0.0
        var e = off(vk); val end = off(vk + 1)
        pushes += end - e
        // Room for every neighbour up front, so the edge loop makes no call.
        if (tail - head + (end - e) > ring.length) {
          ring = unwrapped(ring, head, tail, end - e); tail -= head; head = 0
        }
        val mask = ring.length - 1
        while (e < end) {
          val u  = adj(e)
          val du = dq(u)
          val ru = residue(u) + spread / Math.abs(du)
          residue(u) = ru
          // Rarely true, so one non-short-circuit test predicts well.
          if ((ru > rbmax) & (du > 0.0)) {
            ring(tail & mask) = u; tail += 1; dq(u) = -du
          }
          e += 1
        }
      }
    }
    g.returnDegrees(dq)
    g.returnRing(ring)
    PushResult(est, residue, pushes)
  }

  private def seeded(g: LocalGraph, seeds: Array[Int], seedResidue: Array[Double]): Array[Double] = {
    val residue = g.borrowResidue()
    var i = 0
    while (i < seeds.length) { residue(seeds(i)) += seedResidue(i); i += 1 }
    residue
  }

  /** The power of two ≥ `need`, at least 64. */
  private def ringSize(need: Int): Int = Integer.highestOneBit(math.max(need, 64) - 1) << 1

  /** The ring's entries head until tail, moved to the front of a ring at
    * least twice as large with room for `extra` more.
    */
  private def unwrapped(ring: Array[Int], head: Int, tail: Int, extra: Int): Array[Int] = {
    val size = tail - head
    val next = new Array[Int](ringSize(math.max(2 * ring.length, size + extra)))
    var i = 0
    while (i < size) { next(i) = ring((head + i) & (ring.length - 1)); i += 1 }
    next
  }
}

/** Single-source DPPR by forward push (§3.3 / Fig. 4): with initial residue
  * r(s) = d(s) (§7.1), the estimates approximate π_d(s, ·).
  */
object ForwardPush {

  def dppr(g: LocalGraph, src: Int, alpha: Double, rmax: Double,
           deadline: Deadline = Deadline.none): PushResult = {
    val est = new Array[Double](g.n)
    Push.forward(g, Array(src), Array(g.outDeg(src).toDouble), alpha, rmax, deadline,
        est) { (v, r) =>
      est(v) += alpha * r
    }
  }
}
