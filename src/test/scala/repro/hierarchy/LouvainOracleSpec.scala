package repro.hierarchy

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GraphGen, LocalGraph}

/** `Hierarchy.build` must reproduce the partitions of the reference Louvain+
  * ([[ReferenceLouvain]]) level for level, including how it breaks ties
  * between equally good communities: the reference visits the candidates in
  * `java.util.HashMap` iteration order.
  */
class LouvainOracleSpec extends AnyFunSuite {

  private def sameAsReference(name: String, g: LocalGraph, k: Int): Unit = {
    val got      = Hierarchy.build(g, k).parents
    val (ref, _) = ReferenceLouvain.build(g, k)
    assert(got.length == ref.length, s"$name k=$k: ${got.length} levels, reference ${ref.length}")
    got.indices.foreach { l =>
      assert(got(l).sameElements(ref(l)), s"$name k=$k: level ${l + 1} differs from the reference")
    }
  }

  /** Order-sensitive hash of every level's parent array. */
  private def hash(parents: Array[Array[Int]]): Long =
    parents.foldLeft(17L)((h, p) => p.foldLeft(h * 31L + p.length)((a, x) => a * 31L + x))

  test("every small graph at k = 5, 10, 25, 50 matches the reference") {
    for ((name, g) <- GraphGen.smallGraphs; k <- Seq(5, 10, 25, 50))
      sameAsReference(name, g, k)
  }

  test("seeded power-law, community and hub-heavy graphs match the reference") {
    val graphs = Seq(
      "powerLaw(200, 2)"    -> GraphGen.powerLaw(200, 2, seed = 101),
      "powerLaw(500, 3)"    -> GraphGen.powerLaw(500, 3, seed = 102),
      "powerLaw(800, 1)"    -> GraphGen.powerLaw(800, 1, seed = 103),
      "powerLaw(1200, 4)"   -> GraphGen.powerLaw(1200, 4, seed = 104),
      "powerLaw(2000, 2)"   -> GraphGen.powerLaw(2000, 2, seed = 105),
      "powerLaw(3000, 6)"   -> GraphGen.powerLaw(3000, 6, seed = 106),
      "powerLaw(2500, 3)"   -> GraphGen.powerLaw(2500, 3, seed = 107),
      "communities(300)"    -> GraphGen.communities(300, 20, 0.5, 0.002, seed = 111),
      "communities(600)"    -> GraphGen.communities(600, 60, 0.6, 0.001, seed = 112),
      "communities(1000)"   -> GraphGen.communities(1000, 40, 0.3, 0.002, seed = 113),
      "communities(1500)"   -> GraphGen.communities(1500, 300, 0.8, 0.0005, seed = 114),
      "communities(2400)"   -> GraphGen.communities(2400, 120, 0.4, 0.0003, seed = 115),
      "communities(3000)"   -> GraphGen.communities(3000, 1000, 0.9, 0.0002, seed = 116),
      "hubHeavy(400)"       -> GraphGen.hubHeavy(400, 2, 5, 2, seed = 121),
      "hubHeavy(900)"       -> GraphGen.hubHeavy(900, 3, 10, 3, seed = 122),
      "hubHeavy(1500)"      -> GraphGen.hubHeavy(1500, 4, 20, 2, seed = 123),
      "hubHeavy(2000)"      -> GraphGen.hubHeavy(2000, 2, 40, 4, seed = 124),
      "hubHeavy(2500)"      -> GraphGen.hubHeavy(2500, 5, 15, 1, seed = 125),
      "hubHeavy(3000)"      -> GraphGen.hubHeavy(3000, 8, 30, 4, seed = 126),
      "hubHeavy(1000, 1)"   -> GraphGen.hubHeavy(1000, 1, 3, 1, seed = 127),
    )
    val ks = Seq(5, 10, 25, 50)
    graphs.zipWithIndex.foreach { case ((name, g), i) => sameAsReference(name, g, ks(i % ks.length)) }
  }

  test("Youtube-lite, hubHeavy(10000) and SciNet at k = 25 are pinned, and all force-merge") {
    val cases = Seq(
      ("Youtube-lite", GraphGen.youtubeLite, 0x7aafc4e7ebb08640L),
      ("hubHeavy(10000, 8, 40, 4)", GraphGen.hubHeavy(10000, 8, 40, 4, seed = 25), 0xb42a265f6d4ba6a3L),
      ("SciNet", GraphGen.sciNet, 0xaaf4781f7d8bd687L),
    )
    for ((name, g, pinned) <- cases) {
      val h = hash(Hierarchy.build(g, 25).parents)
      assert(h == pinned, f"$name: hash 0x$h%016xL, pinned 0x$pinned%016xL")
      val (_, forced) = ReferenceLouvain.build(g, 25)
      assert(forced > 0, s"$name no longer reaches forceMerge")
    }
  }

  /** Equal-degree 4-cliques on `hubs`, each hub also joined to node `t`:
    * `t` sees one community per hub at the same modularity gain. Ids between
    * the ones named stay isolated.
    */
  private def tiedCliques(t: Int, hubs: Seq[Int], extra: Seq[(Int, Int)]): LocalGraph = {
    var next = (hubs ++ extra.map(_._2)).max + 1
    val edges = hubs.flatMap { h =>
      val c = Seq(h, next, next + 1, next + 2); next += 3
      for (i <- c.indices; j <- (i + 1) until c.length) yield (c(i), c(j))
    } ++ hubs.map(h => (t, h)) ++ extra
    LocalGraph.undirected(next, edges)
  }

  test("a tie goes to the community HashMap order visits first") {
    val g  = tiedCliques(0, Seq(3, 16, 130), Seq.empty)
    val wg = ReferenceLouvain.WGraph.fromLocal(g)
    // Node 0 sees hub 130 first; 3 is the lowest id; 16 sits in bucket 0.
    assert(wg.adj(0).map(_._1).toSeq == Seq(130, 3, 16))
    sameAsReference("tie", g, 5)
    // Later sweeps re-decide node 0; its first visit is the one under test.
    val a = Louvain.pass(WGraph.fromLocal(g), 5, maxSweeps = 1)
    assert(a.sameElements(ReferenceLouvain.Louvain.pass(wg, 5, maxSweeps = 1)))
    assert(a(0) == a(16) && a(0) != a(3) && a(0) != a(130))
  }

  test("a node with 14 neighbouring communities grows the tracked table past 16") {
    // Node 0, visited first, has 14 leaves: the table doubles to 32 before
    // node 1 breaks its tie between hubs 3, 19 and 51, which share a bucket
    // at 16. At 32, 3 has its bucket to itself and comes first; at 16 the
    // newest of the three, 51, would.
    val g  = tiedCliques(1, Seq(19, 3, 51), (180 until 194).map(l => (0, l)))
    val wg = ReferenceLouvain.WGraph.fromLocal(g)
    assert(wg.adj(1).map(_._1).toSeq == Seq(3, 19, 51))
    sameAsReference("growth", g, 25)
    val a = Louvain.pass(WGraph.fromLocal(g), 25, maxSweeps = 1)
    assert(a.sameElements(ReferenceLouvain.Louvain.pass(wg, 25, maxSweeps = 1)))
    assert(a(1) == a(3) && a(1) != a(19) && a(1) != a(51))
  }
}
