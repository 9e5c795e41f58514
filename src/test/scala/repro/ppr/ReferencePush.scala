package repro.ppr

import repro.graph.LocalGraph

/** `Push.forward` and `Push.backward` as they were with an `ArrayDeque` of
  * boxed `Integer`s, a closure per edge and an eager residue sum, kept
  * verbatim as a test oracle: [[Push]] must reproduce their estimates,
  * residues, residue sum and push count bit for bit. Only the result type
  * ([[ReferencePush.Result]], the old `PushResult`) is new.
  */
object ReferencePush {

  final case class Result(
      est: Array[Double],
      residue: Array[Double],
      rsum: Double,
      pushes: Long,
  )

  def forward(g: LocalGraph, seeds: Array[Int], seedResidue: Array[Double],
              alpha: Double, rmax: Double, deadline: Deadline,
              est: Array[Double])(credit: (Int, Double) => Unit): Result = {
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

  def backward(g: LocalGraph, seeds: Array[Int], seedResidue: Array[Double],
               alpha: Double, rbmax: Double, deadline: Deadline,
               est: Array[Double])(credit: (Int, Double) => Unit): Result = {
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

  private def result(est: Array[Double], residue: Array[Double], pushes: Long): Result = {
    var rsum = 0.0
    var i = 0
    while (i < residue.length) { rsum += residue(i); i += 1 }
    Result(est, residue, rsum, pushes)
  }
}
