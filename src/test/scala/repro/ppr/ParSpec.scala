package repro.ppr

import java.util.concurrent.atomic.{AtomicBoolean, AtomicInteger, AtomicIntegerArray}
import org.scalatest.funsuite.AnyFunSuite

class ParSpec extends AnyFunSuite {

  test("forEach runs every index exactly once, and returns after the last") {
    Seq(0, 1, 2, 1000).foreach { count =>
      val seen = new AtomicIntegerArray(count)
      Par.forEach(count) { i =>
        if (count == 2) Thread.sleep(20)
        seen.incrementAndGet(i)
      }
      (0 until count).foreach(i => assert(seen.get(i) == 1, s"count $count index $i"))
    }
  }

  test("a throwing body reaches the caller with its type, after every other index") {
    val caller = Thread.currentThread()
    Seq(true, false).foreach { onCaller =>
      val thrown = new AtomicBoolean(false)
      val done   = new AtomicInteger(0)
      intercept[Deadline.Exceeded] {
        Par.forEach(12) { _ =>
          if ((Thread.currentThread() eq caller) == onCaller && thrown.compareAndSet(false, true))
            throw new Deadline.Exceeded
          Thread.sleep(20)
          done.incrementAndGet()
        }
      }
      assert(done.get() == 11, s"thrown on the calling thread: $onCaller")
    }
  }

  test("a nested forEach inside a body completes") {
    val seen = new AtomicIntegerArray(64)
    val outer = new Thread(() => Par.forEach(8)(i => Par.forEach(8)(j => seen.incrementAndGet(8 * i + j))))
    outer.start()
    outer.join(60000)
    assert(!outer.isAlive, "nested forEach did not finish")
    (0 until 64).foreach(i => assert(seen.get(i) == 1, s"index $i"))
  }
}
