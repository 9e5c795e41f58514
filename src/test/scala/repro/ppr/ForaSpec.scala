package repro.ppr

import java.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.graph.GraphGen

class ForaSpec extends AnyFunSuite {

  private val alpha = 0.2
  private val eps   = 1.0 - 1.0 / math.E
  private val delta = 1.0 / 250.0 // 1/(10k) with k = 25
  private val pf    = 0.01
  private lazy val g = GraphGen.fbEgo
  private lazy val exact = PowerIteration.dpprMatrix(g, alpha)

  private def checkEnvelope(est: Array[Double], src: Int, slack: Double = 1.0): Unit =
    (0 until g.n).foreach { j =>
      val e = math.abs(est(j) - exact(src)(j))
      val bound =
        if (exact(src)(j) < delta) eps * delta else eps * exact(src)(j)
      assert(e <= bound * slack + 1e-9,
        s"target $j: err=$e exact=${exact(src)(j)} bound=$bound")
    }

  test("FORA meets the (eps,delta) envelope on every target (seeded)") {
    val rnd = new Random(7)
    Seq(0, 5, 17).foreach { s =>
      checkEnvelope(Fora.dppr(g, s, alpha, eps, delta, pf, rnd), s)
    }
  }

  test("FORA with a walk index still meets the envelope") {
    val rnd = new Random(8)
    val wi  = WalkIndex.build(g, alpha, perNode = 64, seed = 3)
    Seq(1, 9).foreach { s =>
      checkEnvelope(Fora.dppr(g, s, alpha, eps, delta, pf, rnd, Deadline.none, wi), s)
    }
  }

  test("ResAcc meets the envelope (seeded)") {
    val rnd = new Random(9)
    Seq(2, 11).foreach { s =>
      checkEnvelope(Fora.dppr(g, s, alpha, eps, delta, pf, rnd,
        rmaxFactor = Fora.ResAccRmaxFactor), s)
    }
  }

  test("FORA+ answers from the index and meets the envelope") {
    val rnd = new Random(10)
    val wi  = WalkIndex.build(g, alpha, perNode = 64, seed = 4)
    Seq(3, 13).foreach { s =>
      checkEnvelope(Fora.dppr(g, s, alpha, eps, delta, pf, rnd, Deadline.none, wi), s)
    }
  }

  test("walkCountW matches the Theorem A.1 formula") {
    val w = Fora.walkCountW(eps, delta, pf)
    val expected = (2 + 2 * eps / 3) * math.log(1 / pf) / (eps * eps * delta)
    assert(math.abs(w - expected) < 1e-9)
  }

  test("walk index quota is degree-weighted") {
    val wi = WalkIndex.build(g, alpha, perNode = 4, seed = 5)
    val degs = (0 until g.n).map(g.outDeg)
    val hub  = degs.indexOf(degs.max)
    val leafV = degs.indexOf(degs.min)
    assert(wi.endpoints(hub).length > wi.endpoints(leafV).length)
  }

  test("walk index size accounting matches its contents") {
    val wi = WalkIndex.build(g, alpha, perNode = 4, seed = 6)
    val expected = wi.endpoints.map(e => 4L * e.length + 16L).sum
    assert(wi.sizeBytes == expected)
  }

  test("random walks terminate at reachable nodes with plausible frequency") {
    val rnd = new Random(11)
    val counts = new Array[Int](g.n)
    val trials = 20000
    (0 until trials).foreach(_ => counts(RandomWalk.walk(g, 0, alpha, rnd)) += 1)
    val p = PowerIteration.ppr(g, 0, alpha)
    (0 until g.n).foreach { v =>
      assert(math.abs(counts(v).toDouble / trials - p(v)) < 0.02)
    }
  }

  test("residue sampler draws proportionally to residues") {
    val res = Array(0.0, 1.0, 3.0, 0.0, 1.0)
    val sampler = new ResidueSampler(res)
    val rnd = new Random(12)
    val counts = new Array[Int](5)
    (0 until 10000).foreach(_ => counts(sampler(rnd)) += 1)
    assert(counts(0) == 0 && counts(3) == 0)
    assert(math.abs(counts(2).toDouble / 10000 - 0.6) < 0.03)
  }
}
