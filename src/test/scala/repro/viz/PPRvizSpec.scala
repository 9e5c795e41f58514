package repro.viz

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Dppr, PDist, TauPush}
import repro.graph.GraphGen
import repro.ppr.{Deadline, Dpr}

class PPRvizSpec extends AnyFunSuite {

  // A hub-heavy graph: its hubs exceed the DPR threshold of the queries they
  // appear in, so queries read the GBP part of the index (no query on
  // FilmTrust at k = 10 has a GBP target).
  private val k = 10
  private lazy val g     = GraphGen.hubHeavy(2000, 4, 20, 2, seed = 5)
  private lazy val index = PPRviz.preprocess(g, k)

  test("preprocess produces a hierarchy respecting k") {
    assert(index.hier.levelSize(index.hier.nLevels) <= k)
  }

  test("preprocess timings are recorded") {
    assert(index.hierSeconds >= 0 && index.dprSeconds >= 0 && index.gbpSeconds >= 0)
    assert(index.hierSeconds + index.dprSeconds + index.gbpSeconds > 0)
  }

  test("index stores GBP results exactly for supernodes above the DPR threshold") {
    val hier = index.hier
    (0 to hier.nLevels).foreach { level =>
      val sets = (0 until hier.levelSize(level)).map(hier.leafSet(level, _))
      sets.indices.foreach { id =>
        val parentK = hier.childrenOf(level + 1, hier.anc(level + 1)(sets(id)(0))).length
        val tau  = 1.0 / math.sqrt(parentK.toDouble * g.n)
        val tauJ = Dpr.ofSupernode(index.leafDpr, sets(id))
        assert(index.gbpAgg.contains((level, id)) == (tauJ > tau),
          s"level $level id $id tau_j=$tauJ tau=$tau")
      }
    }
  }

  // Every query of the hierarchy: each supernode and the virtual root.
  private lazy val queries =
    (1 to index.hier.nLevels + 1).flatMap(l => index.hier.ids(l).map((l, _)))

  test("index keys are exactly the GBP targets of all queries, each read as an index hit") {
    val hier = index.hier
    val read = Set.newBuilder[(Int, Int)]
    queries.foreach { case (level, id) =>
      val (q, ids) = PPRviz.queryWithIds(hier, level, id)
      var misses = 0
      val lookup: Int => Option[Array[Double]] = { j =>
        read += ((level - 1, ids(j)))
        val hit = index.gbpAgg.get((level - 1, ids(j)))
        if (hit.isEmpty) misses += 1
        hit
      }
      val res = TauPush.run(g, q, index.leafDpr, PPRviz.DefaultAlpha, PPRviz.DefaultEps,
        PPRviz.delta(k), TauPush.Standard, Deadline.none, lookup)
      assert(misses == 0, s"query ($level,$id) fell back to live GBP")
      assert(PPRviz.queryPDist(g, index, level, id, k).pushes == res.pushes)
    }
    assert(index.gbpAgg.nonEmpty, "expected at least one GBP target")
    assert(read.result() == index.gbpAgg.keySet)
  }

  test("total pushes over every query are pinned") {
    // Recorded before the four push loops became two kernels; any change to
    // push order or thresholds moves it.
    val total = queries.map { case (level, id) =>
      PPRviz.queryPDist(g, index, level, id, k).pushes
    }.sum
    assert(total == 50317833L)
  }

  test("query PDist values respect the Eq. 1 range at every level") {
    val levels = (1 to index.hier.nLevels).map(l => (l, 0)) :+ (index.hier.nLevels + 1, -1)
    levels.foreach { case (level, id) =>
      val res = PPRviz.queryPDist(g, index, level, id, k)
      val kk = res.pdist.length
      for (i <- 0 until kk; j <- 0 until kk if i != j) {
        assert(res.pdist(i)(j) >= 2.0 - 1e-12 && res.pdist(i)(j) <= PDist.upper(g.n) + 1e-12)
      }
    }
  }

  test("indexed query stays within the (eps,delta) envelope of the exact values") {
    val (q, _) = PPRviz.queryWithIds(index.hier, index.hier.nLevels + 1, -1)
    val res    = PPRviz.queryPDist(g, index, index.hier.nLevels + 1, -1, k)
    val exact  = Dppr.exactMatrix(g, q, PPRviz.DefaultAlpha)
    val eps    = PPRviz.DefaultEps
    val delta  = PPRviz.delta(k)
    for (i <- 0 until q.k; j <- 0 until q.k if i != j) {
      val ex = exact(i)(j)
      val bound = if (ex < delta) eps * delta else eps * ex
      assert(math.abs(res.dppr(i)(j) - ex) <= bound + 1e-9, s"pair ($i,$j)")
    }
  }

  private lazy val tauPush = Variants.buildIndex(Variants.TauPushVar, index.hier, k)

  test("visualize returns one 2-D row per child") {
    val x = Variants.visualize(tauPush, index.hier.nLevels + 1, -1, Deadline.none).get
    assert(x.length == index.hier.levelSize(index.hier.nLevels))
    assert(x.forall(p => p.length == 2 && p.forall(v => !v.isNaN)))
  }

  test("responseTime is positive and fast on the small graph") {
    val t = Variants.responseTime(tauPush, paths = 2,
      deadlineSec = Double.PositiveInfinity, seed = 5).get
    assert(t > 0 && t < 5.0)
  }

  test("stored GBP aggregates equal a live GBP run against the parent query") {
    assert(index.gbpAgg.nonEmpty, "expected at least one high-DPR supernode")
    index.gbpAgg.foreach { case ((level, id), stored) =>
      val parent   = index.hier.anc(level + 1)(index.hier.leafSet(level, id)(0))
      val (q, ids) = PPRviz.queryWithIds(index.hier, level + 1, parent)
      val j = ids.indexOf(id)
      assert(j >= 0, s"($level,$id) not among its parent's children")
      val maxAvgDeg = q.avgDegs.max
      val rbmax     = PPRviz.DefaultEps * PPRviz.delta(k) / maxAvgDeg
      val live = repro.core.Fixtures.gbpRun(g, q, j, PPRviz.DefaultAlpha, rbmax)
      stored.indices.foreach(i => assert(math.abs(stored(i) - live(i)) < 1e-12))
    }
  }

  test("index size accounting covers hierarchy, DPR and GBP aggregates") {
    val expected = index.hier.sizeBytes + 8L * g.n +
      index.gbpAgg.valuesIterator.map(a => 8L * a.length + 32L).sum
    assert(index.sizeBytes == expected)
  }

  test("index space is small: O(n + k·sqrt(kn)) not O(n·targets)") {
    // The GBP part stores k doubles per high-DPR supernode, never per-node
    // vectors (the §4.3 index-space claim).
    index.gbpAgg.foreach { case ((level, id), a) =>
      assert(a.length <= math.max(k, index.hier.levelSize(index.hier.nLevels)),
        s"($level,$id) stores ${a.length} values")
    }
  }

  test("queries honour deadlines") {
    intercept[Deadline.Exceeded] {
      PPRviz.queryPDist(g, index, index.hier.nLevels + 1, -1, k,
        deadline = new Deadline(System.nanoTime() - 1))
    }
  }

  test("a hierarchy with no supernode level answers its one query, the virtual root") {
    // TwEgo's 23 leaves fit under one root at k = 25: no Louvain+ level.
    val tw = GraphGen.twEgo
    val ix = PPRviz.preprocess(tw, 25)
    assert(ix.hier.nLevels == 0)
    val res = PPRviz.queryPDist(tw, ix, 1, -1, 25)
    assert(res.pdist.length == tw.n && res.pdist.forall(_.length == tw.n))
    assert(ix.hier.randomZoomPath(new java.util.Random(1)) == Seq((1, -1)))
    Variants.all.foreach { v =>
      val vi = Variants.buildIndex(v, ix.hier, 25)
      assert(Variants.responseTime(vi, paths = 2, deadlineSec = 60.0, seed = 5).exists(_ > 0),
        v.name)
    }
  }
}
