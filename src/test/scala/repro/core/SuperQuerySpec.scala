package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.LocalGraph

class SuperQuerySpec extends AnyFunSuite {

  test("an empty child or a leaf outside [0, n) is rejected with a clear message") {
    val g5 = LocalGraph.fromArcs(5, Seq.empty[(Int, Int)])
    val empty = intercept[IllegalArgumentException] {
      SuperQuery(g5, Array(Array(0, 1), Array.empty[Int]))
    }
    assert(empty.getMessage.contains("child supernode 1 has no leaves"))
    Seq(5, -1).foreach { v =>
      val out = intercept[IllegalArgumentException](SuperQuery(g5, Array(Array(0), Array(v))))
      assert(out.getMessage.contains(s"leaf $v of child supernode 1 is outside [0, 5)"))
    }
  }
}
