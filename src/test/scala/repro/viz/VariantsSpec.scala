package repro.viz

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Dppr
import repro.graph.GraphGen
import repro.hierarchy.Hierarchy
import repro.ppr.Deadline

class VariantsSpec extends AnyFunSuite {

  private val k = 10
  private lazy val g    = GraphGen.wikiII
  private lazy val hier = Hierarchy.build(g, k)
  private lazy val indices =
    Variants.all.map(v => v -> Variants.buildIndex(v, hier, k)).toMap

  private def rootDppr(v: Variants.Variant, deadlineSec: Double = 120.0): Array[Array[Double]] =
    indices(v).dppr(hier.nLevels + 1, -1, Deadline.in(deadlineSec), 3)

  test("every variant approximates the exact root-level DPPR") {
    val (q, _) = PPRviz.queryWithIds(hier, hier.nLevels + 1, -1)
    val exact  = Dppr.exactMatrix(g, q, PPRviz.DefaultAlpha)
    val eps    = PPRviz.DefaultEps
    val delta  = PPRviz.delta(k)
    Variants.all.foreach { v =>
      val dppr = rootDppr(v)
      for (i <- 0 until q.k; j <- 0 until q.k if i != j) {
        val ex = exact(i)(j)
        val bound = if (ex < delta) eps * delta else eps * ex
        // Monte-Carlo variants get a 2x slack on the seeded run.
        val slack = if (v == Variants.PiVar || v == Variants.TauPushVar ||
                        v == Variants.GfpTauMaxVar) 1.0 else 2.0
        assert(math.abs(dppr(i)(j) - ex) <= bound * slack + 1e-6,
          s"${v.name} pair ($i,$j): est=${dppr(i)(j)} exact=$ex")
      }
    }
  }

  test("PI variant is near-exact") {
    val (q, _) = PPRviz.queryWithIds(hier, hier.nLevels + 1, -1)
    val exact  = Dppr.exactMatrix(g, q, PPRviz.DefaultAlpha)
    val dppr   = rootDppr(Variants.PiVar)
    for (i <- 0 until q.k; j <- 0 until q.k) {
      assert(math.abs(dppr(i)(j) - exact(i)(j)) < 1e-6)
    }
  }

  test("index sizes: FORA > FORA+ > Tau-Push-extra ≥ none") {
    val bytes = indices.map { case (v, vi) => v.name -> vi.bytes }
    assert(bytes("FORA") > bytes("FORA+"))
    assert(bytes("FORA+") > bytes("Tau-Push"))
    assert(bytes("Tau-Push") >= bytes("PI"))
    assert(bytes("PI") == bytes("ResAcc"))
    assert(bytes("FORA") == bytes("GFRA"))
  }

  test("PI and ResAcc build no index beyond the hierarchy") {
    assert(indices(Variants.PiVar).bytes == hier.sizeBytes)
    assert(indices(Variants.ResAccVar).bytes == hier.sizeBytes)
    assert(indices(Variants.PiVar).buildSeconds == 0.0)
  }

  test("Tau-Push index holds DPR and GBP credits") {
    val vi = indices(Variants.TauPushVar)
    val ix = PPRviz.buildIndex(hier, k)
    assert(vi.bytes == ix.sizeBytes)
    assert(vi.bytes >= hier.sizeBytes + 8L * g.n)
  }

  test("visualize returns a layout for fast variants and None on expired deadlines") {
    val ok = Variants.visualize(indices(Variants.TauPushVar),
      hier.nLevels + 1, -1, Deadline.in(60.0))
    assert(ok.isDefined)
    val timedOut = Variants.visualize(indices(Variants.PiVar),
      hier.nLevels + 1, -1, new Deadline(System.nanoTime() - 1))
    assert(timedOut.isEmpty)
  }

  test("responseTime yields Some for Tau-Push and None under an expired deadline") {
    val some = Variants.responseTime(indices(Variants.TauPushVar),
      paths = 1, deadlineSec = 60.0, seed = 4)
    assert(some.exists(_ > 0))
    val none = Variants.responseTime(indices(Variants.PiVar),
      paths = 1, deadlineSec = 1e-9, seed = 4)
    assert(none.isEmpty)
  }

  test("variant names match the paper's column order") {
    assert(Variants.all.map(_.name) ==
      Seq("PI", "FORA", "FORA+", "ResAcc", "Tau-Push", "GFRA", "GFP(tmax)"))
  }
}
