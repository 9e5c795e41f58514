package repro.ppr

import java.lang.Double.doubleToLongBits
import java.util.Random
import scala.collection.mutable.ArrayBuffer
import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GraphGen, LocalGraph}

/** `Push.forward` and `Push.backward` must reproduce the reference kernels
  * ([[ReferencePush]]) bit for bit: the same estimates, residues, residue sum
  * and push count, and the same credit calls in the same FIFO order.
  */
class PushOracleSpec extends AnyFunSuite {
  import PushOracleSpec._

  private val alpha = 0.2

  /** The sinks `ForwardPush.dppr` and `Gbp.credits` use, logging each call;
    * after `stopAfter` credits the sink throws `Deadline.Exceeded`.
    */
  private def sink(dir: Dir, g: LocalGraph, est: Array[Double], log: ArrayBuffer[Long],
                   stopAfter: Int)(v: Int, r: Double): Unit = {
    if (log.length / 2 == stopAfter) throw new Deadline.Exceeded
    dir match {
      case Fwd => est(v) += alpha * r
      case Bwd => est(v) += alpha * g.outDeg(v) * r
    }
    log += v; log += doubleToLongBits(r)
  }

  private def viaPush(dir: Dir, g: LocalGraph, seeds: Array[Int], seedResidue: Array[Double],
                      rmax: Double, deadline: Deadline = Deadline.none,
                      stopAfter: Int = -1): Run = {
    val est = new Array[Double](g.n)
    val log = ArrayBuffer.empty[Long]
    val kernel = if (dir == Fwd) Push.forward _ else Push.backward _
    val r = kernel(g, seeds, seedResidue, alpha, rmax, deadline, est)(sink(dir, g, est, log, stopAfter))
    Run(r.est, r.residue, r.rsum, r.pushes, log)
  }

  private def viaReference(dir: Dir, g: LocalGraph, seeds: Array[Int],
                           seedResidue: Array[Double], rmax: Double): Run = {
    val est = new Array[Double](g.n)
    val log = ArrayBuffer.empty[Long]
    val kernel = if (dir == Fwd) ReferencePush.forward _ else ReferencePush.backward _
    val r = kernel(g, seeds, seedResidue, alpha, rmax, Deadline.none, est)(sink(dir, g, est, log, -1))
    Run(r.est, r.residue, r.rsum, r.pushes, log)
  }

  private def sameAsReference(name: String, dir: Dir, g: LocalGraph, seeds: Array[Int],
                              seedResidue: Array[Double], rmax: Double): Run = {
    val got  = viaPush(dir, g, seeds, seedResidue, rmax)
    val ref  = viaReference(dir, g, seeds, seedResidue, rmax)
    val what = s"$name, $dir, ${seeds.length} seeds, rmax $rmax"
    assert(got.pushes == ref.pushes, s"$what: ${got.pushes} pushes, reference ${ref.pushes}")
    assert(got.credits == ref.credits, s"$what: credit calls differ from the reference")
    assert(got.est.map(doubleToLongBits).sameElements(ref.est.map(doubleToLongBits)),
      s"$what: estimates differ")
    assert(got.residue.map(doubleToLongBits).sameElements(ref.residue.map(doubleToLongBits)),
      s"$what: residues differ")
    assert(doubleToLongBits(got.rsum) == doubleToLongBits(ref.rsum),
      s"$what: rsum ${got.rsum}, reference ${ref.rsum}")
    got
  }

  /** Every node with id divisible by 5 loses its out-arcs, so it becomes
    * dangling and gets a self-loop.
    */
  private def withDangling(g: LocalGraph): LocalGraph =
    LocalGraph.fromArcs(g.n, g.arcs.filter { case (s, _) => s % 5 != 0 })

  private lazy val graphs: Seq[(String, LocalGraph)] = Seq(
    "powerLaw(3000, 3)"          -> GraphGen.powerLaw(3000, 3, seed = 41),
    "hubHeavy(4000)"             -> GraphGen.hubHeavy(4000, 4, 25, 3, seed = 42),
    "powerLaw(2000, 2) dangling" -> withDangling(GraphGen.powerLaw(2000, 2, seed = 43)),
    "hubHeavy(2500) dangling"    -> withDangling(GraphGen.hubHeavy(2500, 3, 15, 2, seed = 44)),
  )

  /** Seed sets: a hub, a random node, 40 distinct ascending nodes (a GFP or
    * GBP group), and a list that repeats nodes.
    */
  private def seedSets(g: LocalGraph, seed: Long): Seq[Array[Int]] = {
    val rnd = new Random(seed)
    val hub = (0 until g.n).maxBy(v => g.inDeg(v))
    val a = rnd.nextInt(g.n); val b = rnd.nextInt(g.n); val c = rnd.nextInt(g.n)
    Seq(
      Array(hub),
      Array(rnd.nextInt(g.n)),
      Array.fill(40)(rnd.nextInt(g.n)).distinct.sorted,
      Array(a, a, b, hub, c, c, c, hub),
    )
  }

  /** Seed residues as the engines set them: d(v)/|seeds| forward (Alg. 2
    * Line 2), 1/|seeds| backward (Alg. 3 Line 2).
    */
  private def residues(dir: Dir, g: LocalGraph, seeds: Array[Int]): Array[Double] =
    dir match {
      case Fwd => seeds.map(g.outDeg(_) / seeds.length.toDouble)
      case Bwd => seeds.map(_ => 1.0 / seeds.length)
    }

  test("forward push matches the reference from no push to deep") {
    for (((name, g), gi) <- graphs.zipWithIndex) {
      var deepest = 0L
      for (seeds <- seedSets(g, 100L + gi); rmax <- Seq(1e9, 0.5, 1e-2, 1e-4, 1e-6)) {
        val got = sameAsReference(name, Fwd, g, seeds, residues(Fwd, g, seeds), rmax)
        if (rmax == 1e9) assert(got.pushes == 0L)
        deepest = math.max(deepest, got.pushes)
      }
      assert(deepest > 2L * g.m, s"$name: rmax 1e-6 should push more than 2·m times")
    }
  }

  test("backward push matches the reference from no push to deep") {
    for (((name, g), gi) <- graphs.zipWithIndex; seeds <- seedSets(g, 200L + gi);
         rbmax <- Seq(1e9, 1e-2, 1e-4, 1e-6)) {
      val got = sameAsReference(name, Bwd, g, seeds, residues(Bwd, g, seeds), rbmax)
      if (rbmax == 1e9) assert(got.pushes == 0L)
    }
  }

  test("repeated seeds enter the queue once per copy, as in the reference") {
    // The reference enqueues each copy of a repeated seed whose summed
    // residue clears the threshold, so the node is popped once per copy.
    val g = graphs.head._2
    val seeds = Array(7, 7, 7, 9)
    sameAsReference("powerLaw(3000, 3)", Fwd, g, seeds, Array(30.0, 1.0, 2.0, 40.0), 0.5)
    sameAsReference("powerLaw(3000, 3)", Bwd, g, seeds, Array(0.3, 0.1, 0.2, 0.4), 1e-3)
  }

  test("a push aborted mid-run leaves the next call on the same thread exact") {
    val g = graphs(1)._2
    val seeds = seedSets(g, 300L)(2)
    for (dir <- Seq(Fwd, Bwd)) {
      // The sink throws after 5000 credits: a deterministic mid-push abort.
      intercept[Deadline.Exceeded] {
        viaPush(dir, g, seeds, residues(dir, g, seeds), 1e-7, stopAfter = 5000)
      }
      sameAsReference("hubHeavy(4000) after a sink abort", dir, g, seeds, residues(dir, g, seeds), 1e-5)
      // A wall-clock deadline that passes while the push runs.
      val big = GraphGen.powerLaw(20000, 5, seed = 2)
      intercept[Deadline.Exceeded] {
        viaPush(dir, big, Array(0), residues(dir, big, Array(0)), 1e-9, Deadline.in(0.005))
      }
      sameAsReference("hubHeavy(4000) after a deadline", dir, g, seeds, residues(dir, g, seeds), 1e-5)
    }
  }
}

object PushOracleSpec {

  /** What one kernel run returned, plus every `credit(v, r)` call in order
    * (v and the bits of r, interleaved).
    */
  private final case class Run(est: Array[Double], residue: Array[Double], rsum: Double,
                               pushes: Long, credits: ArrayBuffer[Long])

  private sealed trait Dir
  private case object Fwd extends Dir
  private case object Bwd extends Dir
}
