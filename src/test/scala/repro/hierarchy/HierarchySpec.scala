package repro.hierarchy

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GraphGen, LocalGraph}
import repro.viz.PPRviz

class HierarchySpec extends AnyFunSuite {

  private lazy val g    = GraphGen.filmTrust
  private val k         = 25
  private lazy val hier = Hierarchy.build(g, k)

  test("every supernode has at most k children") {
    (1 to hier.nLevels).foreach { level =>
      val p = hier.parents(level - 1)
      val counts = p.groupBy(identity).view.mapValues(_.length)
      counts.foreach { case (id, c) =>
        assert(c <= k, s"level $level supernode $id has $c children")
      }
    }
  }

  test("the coarsest supergraph has at most k supernodes") {
    assert(hier.levelSize(hier.nLevels) <= k)
  }

  test("leaf sets at each level partition V") {
    (0 to hier.nLevels).foreach { level =>
      val sets = (0 until hier.levelSize(level)).map(hier.leafSet(level, _))
      val all  = sets.flatten.sorted
      assert(all.toSeq == (0 until g.n))
    }
  }

  test("anc is consistent with parents") {
    (0 until hier.nLevels).foreach { l =>
      (0 until g.n).foreach { v =>
        assert(hier.anc(l + 1)(v) == hier.parents(l)(hier.anc(l)(v)))
      }
    }
  }

  test("childrenOf inverts parents") {
    val level = 1
    val ids   = 0 until hier.levelSize(level)
    ids.foreach { id =>
      hier.childrenOf(level, id).foreach(c => assert(hier.parents(level - 1)(c) == id))
    }
  }

  /** `queryWithIds(level, id)` fails with a message naming both. */
  private def rejects(level: Int, id: Int): Unit = {
    val e = intercept[IllegalArgumentException](PPRviz.queryWithIds(hier, level, id))
    assert(e.getMessage.contains(s"level $level") && e.getMessage.contains(id.toString),
      e.getMessage)
  }

  test("queryWithIds rejects a level below 1") {
    rejects(0, 0)
    rejects(-1, -1)
  }

  test("queryWithIds rejects a level above the virtual root's") {
    rejects(hier.nLevels + 2, -1)
    rejects(hier.nLevels + 2, 0)
  }

  test("queryWithIds rejects id -1 below the virtual root's level") {
    rejects(1, -1)
    rejects(hier.nLevels, -1)
  }

  test("queryWithIds rejects a supernode id at the virtual root's level") {
    rejects(hier.nLevels + 1, 0)
  }

  test("queryWithIds rejects an id outside the level") {
    rejects(1, hier.levelSize(1))
    rejects(hier.nLevels, hier.levelSize(hier.nLevels))
    rejects(1, -2)
  }

  test("build rejects k < 2 up front") {
    Seq(1, 0, -3).foreach { bad =>
      val e = intercept[IllegalArgumentException](Hierarchy.build(g, bad))
      assert(e.getMessage.contains("k >= 2") && e.getMessage.contains(s"k=$bad"), e.getMessage)
    }
  }

  test("query children leaf sets union to the supernode's leaf set") {
    val id = 0
    val q  = PPRviz.queryWithIds(hier, 1, id)._1
    assert(q.children.flatten.sorted.toSeq == hier.leafSet(1, id).sorted.toSeq)
  }

  test("rootQuery covers all leaves") {
    assert(hier.rootQuery.children.flatten.sorted.toSeq == (0 until g.n))
  }

  test("random zoom path descends one level at a time to level 1") {
    val rnd  = new java.util.Random(3)
    val path = hier.randomZoomPath(rnd)
    assert(path.head == (hier.nLevels + 1, -1))
    assert(path.last._1 == 1)
    assert(path.map(_._1) == (hier.nLevels + 1) +: (hier.nLevels to 1 by -1))
  }

  test("hierarchy build is deterministic") {
    val h2 = Hierarchy.build(g, k)
    (0 until hier.nLevels).foreach { l =>
      assert(hier.parents(l).toSeq == h2.parents(l).toSeq)
    }
  }

  test("two separate cliques end up in different level-1 supernodes") {
    val edges = (for (a <- 0 until 5; b <- (a + 1) until 5) yield (a, b)) ++
                (for (a <- 5 until 10; b <- (a + 1) until 10) yield (a, b)) :+ (0, 5)
    val gg = LocalGraph.undirected(10, edges)
    val h  = Hierarchy.build(gg, 6)
    val c  = h.anc(h.nLevels)
    // Every node of clique 1 shares a top supernode; same for clique 2.
    assert((0 until 5).map(c(_)).distinct.size == 1)
    assert((5 until 10).map(c(_)).distinct.size == 1)
  }

  test("Louvain pass respects the size constraint on a big community graph") {
    val gg = GraphGen.communities(300, 20, 0.5, 0.002, seed = 8)
    val wg = WGraph.fromLocal(gg)
    val a  = Louvain.pass(wg, 10)
    a.groupBy(identity).foreach { case (c, members) =>
      assert(members.length <= 10, s"community $c has ${members.length} > 10 members")
    }
  }

  test("Louvain groups planted communities together more than apart") {
    val gg = GraphGen.communities(120, 6, 0.6, 0.004, seed = 9)
    val wg = WGraph.fromLocal(gg)
    val a  = Louvain.pass(wg, 20)
    // Count node pairs of the same planted community assigned together.
    var same = 0; var total = 0
    for (u <- 0 until 120; v <- (u + 1) until 120 if u % 6 == v % 6) {
      total += 1
      if (a(u) == a(v)) same += 1
    }
    assert(same.toDouble / total > 0.3, s"only $same/$total planted pairs kept together")
  }

  test("forceMerge strictly reduces the community count on an edgeless graph") {
    val gg = LocalGraph.fromArcs(8, Seq.empty[(Int, Int)]) // self-loops only
    val wg = WGraph.fromLocal(gg)
    val a  = Louvain.forceMerge(wg, 4)
    assert(a.max + 1 < 8)
  }

  test("WGraph.fromLocal symmetrizes and counts arc multiplicity") {
    val gg = LocalGraph.fromArcs(3, Seq((0, 1), (1, 0), (1, 2)))
    val wg = WGraph.fromLocal(gg)
    def weight(a: Int, b: Int): Option[Double] =
      (wg.off(a) until wg.off(a + 1)).find(wg.nbr(_) == b).map(wg.w(_))
    val w01 = weight(0, 1)
    val w12 = weight(1, 2)
    assert(w01.contains(2.0)) // both directions present
    assert(w12.contains(1.0))
  }

  test("aggregate conserves total edge weight") {
    val gg = GraphGen.twEgo
    val wg = WGraph.fromLocal(gg)
    val a  = Louvain.pass(wg, 8)
    val agg = Louvain.aggregate(wg, a)
    assert(math.abs(agg.twoW - wg.twoW) < 1e-9)
  }

  test("hierarchy sizeBytes is positive and counts all levels") {
    assert(hier.sizeBytes >= hier.parents.map(_.length).sum * 4L)
  }
}
