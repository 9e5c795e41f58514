package repro.ppr

import repro.graph.LocalGraph

/** Result of a push run: the array the credit sink accumulated into (per-node
  * estimates, per-child estimates or per-node GBP credits), per-node leftover
  * residues and their sum, plus the number of push operations performed.
  */
final case class PushResult(
    est: Array[Double],
    residue: Array[Double],
    rsum: Double,
    pushes: Long,
)

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
  */
object Push {

  /** Forward push: while some node has `r(v) > d(v)·rmax`, credit v and
    * spread (1-α)·r(v) evenly over v's out-neighbours. The invariant of
    * Eq. (3) holds throughout.
    */
  def forward(g: LocalGraph, seeds: Array[Int], seedResidue: Array[Double],
              alpha: Double, rmax: Double, deadline: Deadline,
              est: Array[Double])(credit: (Int, Double) => Unit): PushResult = {
    val residue = seeded(g.n, seeds, seedResidue)
    val inQueue = new Array[Boolean](g.n)
    val queue   = new java.util.ArrayDeque[Integer]()
    seeds.foreach { v =>
      if (residue(v) > g.outDeg(v) * rmax) { queue.add(v); inQueue(v) = true }
    }
    var pushes = 0L
    var pops   = 0
    while (!queue.isEmpty) {
      if ((pops & 0x3ff) == 0) deadline.check()
      pops += 1
      val vk = queue.poll().intValue(); inQueue(vk) = false
      val r  = residue(vk)
      val dv = g.outDeg(vk)
      if (r > dv * rmax) {
        credit(vk, r)
        val share = (1.0 - alpha) * r / dv
        residue(vk) = 0.0
        g.foreachOut(vk) { u =>
          residue(u) += share
          if (!inQueue(u) && residue(u) > g.outDeg(u) * rmax) {
            queue.add(u); inQueue(u) = true
          }
        }
        pushes += dv
      }
    }
    result(est, residue, pushes)
  }

  /** Backward push along in-edges: while some node has `r(v) > rbmax`,
    * credit v and add (1-α)·r(v)/d(u) to each in-neighbour u (the r.h.s.
    * graph of Fig. 5). Crediting α·r(v) approximates π(·, t) for a seed t.
    */
  def backward(g: LocalGraph, seeds: Array[Int], seedResidue: Array[Double],
               alpha: Double, rbmax: Double, deadline: Deadline,
               est: Array[Double])(credit: (Int, Double) => Unit): PushResult = {
    val residue = seeded(g.n, seeds, seedResidue)
    val inQueue = new Array[Boolean](g.n)
    val queue   = new java.util.ArrayDeque[Integer]()
    seeds.foreach { v =>
      if (residue(v) > rbmax) { queue.add(v); inQueue(v) = true }
    }
    var pushes = 0L
    var pops   = 0
    while (!queue.isEmpty) {
      if ((pops & 0x3ff) == 0) deadline.check()
      pops += 1
      val vk = queue.poll().intValue(); inQueue(vk) = false
      val r  = residue(vk)
      if (r > rbmax) {
        credit(vk, r)
        residue(vk) = 0.0
        g.foreachIn(vk) { u =>
          residue(u) += (1.0 - alpha) * r / g.outDeg(u)
          if (!inQueue(u) && residue(u) > rbmax) { queue.add(u); inQueue(u) = true }
        }
        pushes += g.inDeg(vk)
      }
    }
    result(est, residue, pushes)
  }

  private def seeded(n: Int, seeds: Array[Int], seedResidue: Array[Double]): Array[Double] = {
    val residue = new Array[Double](n)
    var i = 0
    while (i < seeds.length) { residue(seeds(i)) += seedResidue(i); i += 1 }
    residue
  }

  private def result(est: Array[Double], residue: Array[Double], pushes: Long): PushResult = {
    var rsum = 0.0
    var i = 0
    while (i < residue.length) { rsum += residue(i); i += 1 }
    PushResult(est, residue, rsum, pushes)
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
