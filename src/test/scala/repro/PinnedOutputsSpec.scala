package repro

import java.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Dppr, Fixtures, Gfra, PDist, TauPush}
import repro.exp.{QualityTables, UserStudy}
import repro.graph.{GraphGen, LocalGraph}
import repro.hierarchy.Hierarchy
import repro.layout.{ForceDirected, GFactor, Sdne, SimRankDist, StressMajorization}
import repro.ppr.{Deadline, Dpr, Fora, WalkIndex}
import repro.viz.{PPRviz, Variants}

/** Exact doubles of the seeded baselines and engines, pinned as a hash of
  * their IEEE bit patterns. The envelope and shape tests elsewhere would not
  * notice a moved last bit; these do. A refactor that keeps the arithmetic
  * must leave every hash unchanged.
  */
class PinnedOutputsSpec extends AnyFunSuite {

  private val alpha = PPRviz.DefaultAlpha
  private val eps   = PPRviz.DefaultEps

  /** Order-sensitive hash of the bit patterns of every entry. */
  private def bits(xs: Array[Double]): Long =
    xs.foldLeft(17L)((h, x) => h * 31L + java.lang.Double.doubleToLongBits(x))
  private def bits(m: Array[Array[Double]]): Long =
    m.foldLeft(17L)((h, row) => h * 31L + bits(row))

  private def pin(name: String, actual: Long, expected: Long): Unit =
    assert(actual == expected, f"$name: hash 0x$actual%016xL, pinned 0x$expected%016xL")

  private lazy val wiki = GraphGen.wikiII
  private lazy val hier = Hierarchy.build(wiki, 10)
  private lazy val dpr  = Dpr.vector(wiki, alpha)

  private def layouts(g: LocalGraph): Seq[(String, Array[Array[Double]])] = Seq(
    "fr"         -> ForceDirected.fr(g, seed = 1),
    "linLog"     -> ForceDirected.linLog(g, seed = 1),
    "forceAtlas" -> ForceDirected.forceAtlas(g, seed = 1),
  )

  test("force-directed layouts on TwEgo and Wiki-ii are pinned (seed 1)") {
    val expected = Map(
      "twEgo/fr" -> 0xd6653860a657f97bL, "twEgo/linLog" -> 0x06334131b6f5cb96L, "twEgo/forceAtlas" -> 0x795df51cbb1fcf4fL,
      "wikiII/fr" -> 0x4aafd0587396153fL, "wikiII/linLog" -> 0x3311f9f4a43b1c11L, "wikiII/forceAtlas" -> 0xb3cae400622239f8L,
    )
    for ((gName, g) <- Seq("twEgo" -> GraphGen.twEgo, "wikiII" -> wiki);
         (model, pos) <- layouts(g)) {
      val key = s"$gName/$model"
      pin(key, bits(pos), expected(key))
    }
  }

  test("FORA, FORA+ and ResAcc single-source estimates are pinned (seeded)") {
    val delta = 1.0 / 250.0
    val pf    = 1.0 / wiki.n
    val wi    = WalkIndex.build(wiki, alpha, perNode = 8, seed = 3)
    pin("FORA", bits(Fora.dppr(wiki, 4, alpha, eps, delta, pf, new Random(21))), 0x791c6f56f08a4697L)
    pin("FORA+", bits(Fora.dppr(wiki, 4, alpha, eps, delta, pf, new Random(22),
      walkIndex = wi)), 0xd8cb39af49c97b10L)
    pin("ResAcc", bits(Fora.dppr(wiki, 4, alpha, eps, delta, pf, new Random(23),
      rmaxFactor = Fora.ResAccRmaxFactor)), 0xf9a420eb0c32dd9fL)
  }

  test("GFRA on a hierarchy query is pinned (seeded)") {
    val q     = PPRviz.queryWithIds(hier, 1, 0)._1
    val delta = PPRviz.delta(q.k)
    pin("GFRA", bits(Gfra.run(wiki, q, alpha, eps, delta, 0.01, seed = 5)), 0x602d17de59ebbcb2L)
    val wi = WalkIndex.build(wiki, alpha, perNode = 8, seed = 6)
    pin("GFRA+index", bits(Gfra.run(wiki, q, alpha, eps, delta, 0.01, seed = 7,
      walkIndex = wi)), 0x5d5073c597f423afL)
  }

  test("GFP(tmax), GBP and the exact row are pinned on the root query") {
    val q     = hier.rootQuery
    val delta = PPRviz.delta(q.k)
    val tmax  = TauPush.run(wiki, q, dpr, alpha, eps, delta, TauPush.GfpTauMax)
    pin("GFP(tmax) dppr", bits(tmax.dppr), 0xd9fd90f66bd0cfb5L)
    pin("GFP(tmax) pdist", bits(tmax.pdist), 0x69dbaf23b26a303aL)
    assert(tmax.gbpTargets == 0)
    pin("GFP(tmax) pushes", tmax.pushes, 15999L)
    pin("Gbp.run", bits(Fixtures.gbpRun(wiki, q, 0, alpha, 1e-4)), 0x6ad9cc5d1f6b61c0L)
    pin("Dppr.exactRow", bits(Dppr.exactRow(wiki, q, 0, alpha)), 0xc4568419c052166bL)
  }

  test("Tau-Push with GBP targets, live and from the index, is pinned") {
    val g     = GraphGen.hubHeavy(400, 3, 6, 2, seed = 5)
    val index = PPRviz.preprocess(g, 10)
    val (q, _) = PPRviz.queryWithIds(index.hier, 1, 0)
    val live  = TauPush.run(g, q, index.leafDpr, alpha, eps, PPRviz.delta(10))
    assert(live.gbpTargets > 0)
    pin("Tau-Push live dppr", bits(live.dppr), 0x17b37ee5866e78bdL)
    pin("Tau-Push live pushes", live.pushes, 201749L)
    val indexed = PPRviz.queryPDist(g, index, 1, 0, 10)
    pin("Tau-Push indexed pdist", bits(indexed.pdist), 0x662b8ebe6ea06d7fL)
    pin("Tau-Push indexed pushes", indexed.pushes, 154670L)
  }

  /** A symmetric k×k PDist matrix of a seeded random DPPR matrix on an
    * n = 30000 graph: entries from the truncation floor 2 to 2·ln n.
    */
  private def seededPDist(k: Int, seed: Long): Array[Array[Double]] = {
    val rnd = new Random(seed)
    PDist.matrix(Array.fill(k, k)(if (rnd.nextInt(4) == 0) 0.0 else rnd.nextDouble() * 0.05), 30000)
  }

  test("stress majorization layouts of seeded PDist matrices are pinned") {
    val expected = Map(
      "k1" -> 0x00501133881640aeL, "k2" -> 0x8a42cc22ec26258cL, "k5" -> 0x25bb0d8c8c279c66L,
      "k12" -> 0xf15c2f15ae843e59L, "k25" -> 0xc1b63d091d09d040L,
      "coincident" -> 0xf3e42c42af76d816L, "skipped" -> 0x02293518e9e190acL,
    )
    // Δ = 1e-13 between nodes 2 and 5 draws them onto one point: their
    // distance falls below 1e-12, so the sweeps take the random-nudge
    // branch, and each nudge still moves both by about 1e-13.
    val coincident = seededPDist(8, 33)
    coincident(2)(5) = 1e-13; coincident(5)(2) = 1e-13
    val skipped = seededPDist(9, 34)
    // A non-positive off-diagonal entry drops that pair from every sum.
    skipped(1)(6) = 0.0; skipped(6)(1) = 0.0
    val cases = Seq(1, 2, 5, 12, 25).map(k => s"k$k" -> seededPDist(k, k.toLong)) ++
      Seq("coincident" -> coincident, "skipped" -> skipped)
    for ((name, d) <- cases)
      pin(s"layout $name", bits(StressMajorization.layout(d, seed = 7)), expected(name))
  }

  test("Tau-Push clicks through PPRviz.queryPDist are pinned: root, mid level, level 1") {
    val g     = GraphGen.hubHeavy(2000, 4, 20, 2, seed = 5)
    val k     = 10
    val index = PPRviz.preprocess(g, k)
    val hier  = index.hier
    // The zoom path to leaf 0, a hub: the level-1 click reads the GBP index.
    val mid    = (hier.nLevels + 1) / 2
    val clicks = Seq(hier.nLevels + 1 -> -1, mid -> hier.anc(mid)(0), 1 -> hier.anc(1)(0))
    val expected = Seq(
      (0xb8b68e2d046161cbL, 0x9ecab044e33e62dfL, 99664L, 0x99e763d826d9c157L),
      (0x5b4888af81af5878L, 0x2fdb5589e9c876b9L, 196192L, 0xea5e0b2374552a95L),
      (0xca9a449131280747L, 0x49e302cfa7cb1d77L, 841034L, 0xed0ce72507faab6fL),
    )
    for (((level, id), (dppr, pdist, pushes, layout)) <- clicks.zip(expected)) {
      val res = PPRviz.queryPDist(g, index, level, id, k)
      pin(s"click ($level,$id) dppr", bits(res.dppr), dppr)
      pin(s"click ($level,$id) pdist", bits(res.pdist), pdist)
      pin(s"click ($level,$id) pushes", res.pushes, pushes)
      pin(s"click ($level,$id) layout", bits(StressMajorization.layout(res.pdist, seed = 7)), layout)
    }
  }

  test("every §7.4 variant's root DPPR and the Tau-Push and GFP(tmax) layouts are pinned") {
    // Wiki-ii has no GBP target at k = 10, so Tau-Push and GFP(tmax) agree
    // there; the hub graph's level-1 click reads Tau-Push's GBP index.
    val k = 10
    val expected = Map(
      "PI" -> 0x3df5c12ee35c8c92L, "FORA" -> 0x6bfa786ec3fc246dL, "FORA+" -> 0xaa819d5ec0a6480eL,
      "ResAcc" -> 0x20bcb29ee9fb03e2L, "Tau-Push" -> 0x7a5c5d0d2fb16e12L, "GFRA" -> 0x49cacb0aa69b7cb8L,
      "GFP(tmax)" -> 0x7a5c5d0d2fb16e12L,
      "Tau-Push layout wiki root" -> 0xeba1b1dd5262bc50L, "Tau-Push layout wiki (1,0)" -> 0x1476ae0ef790f3dfL,
      "Tau-Push layout hub (1,0)" -> 0x7b1fc3b48bc25be3L,
      "GFP(tmax) layout wiki root" -> 0xeba1b1dd5262bc50L, "GFP(tmax) layout wiki (1,0)" -> 0x1476ae0ef790f3dfL,
      "GFP(tmax) layout hub (1,0)" -> 0x389bbf449e930cf5L,
    )
    val root     = hier.nLevels + 1
    val hub      = GraphGen.hubHeavy(400, 3, 6, 2, seed = 5)
    val hubHier  = Hierarchy.build(hub, k)
    val actual = Variants.all.flatMap { v =>
      val vi   = Variants.buildIndex(v, hier, k)
      val dppr = vi.dppr(root, -1, Deadline.in(120.0), 3)
      val shown = if (v == Variants.TauPushVar || v == Variants.GfpTauMaxVar) {
        val hubVi = Variants.buildIndex(v, hubHier, k)
        def layout(vi: Variants.VariantIndex, level: Int, id: Int): Long =
          bits(Variants.visualize(vi, level, id, Deadline.none).get)
        Seq(s"${v.name} layout wiki root"  -> layout(vi, root, -1),
            s"${v.name} layout wiki (1,0)" -> layout(vi, 1, 0),
            s"${v.name} layout hub (1,0)"  -> layout(hubVi, 1, 0))
      } else Seq.empty
      (v.name -> bits(dppr)) +: shown
    }
    val wrong = actual.filter { case (name, h) => h != expected(name) }
    assert(wrong.isEmpty, wrong.map { case (name, h) =>
      f"$name: hash 0x$h%016xL, pinned 0x${expected(name)}%016xL" }.mkString("; "))
  }

  test("GFactor, SDNE and the SimRank distances on TwEgo are pinned") {
    val tw = GraphGen.twEgo
    pin("GFactor", bits(GFactor.layout(tw, seed = 7)), 0x029f1828a0ff3229L)
    pin("SDNE", bits(Sdne.layout(tw, epochs = 30, seed = 7)), 0x1c14a50c069019f8L)
    pin("SimRank distances", bits(SimRankDist.distances(tw)), 0x4bb7be86cfe4bd7cL)
  }

  test("the PPRviz quality layout on TwEgo and the DPR vector on Wiki-ii are pinned") {
    pin("QualityTables.pprvizLayout", bits(QualityTables.pprvizLayout(GraphGen.twEgo)), 0xb083b62fa9a2323fL)
    pin("Dpr.vector", bits(dpr), 0xe71905ce8c64093bL)
  }

  test("the user study's counts with two judges are pinned") {
    assert(UserStudy.run(nJudges = 2) == UserStudy.Counts(1, 6, 5))
  }
}
