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

  test("fork returns its body's value to every waiting thread, and rethrows its throwable as it is") {
    val value = Par.fork { Thread.sleep(20); 42 }
    val other = Par.fork(value() + 1)
    assert(value() == 42 && other() == 43)
    val boom  = new Deadline.Exceeded
    val fails = Par.fork[Int](throw boom)
    assert(intercept[Deadline.Exceeded](fails()) eq boom)
  }

  test("a group runs every body once, also bodies that bodies fork, before join returns") {
    val seen  = new AtomicIntegerArray(64)
    val group = new Par.Group
    (0 until 8).foreach { i =>
      group.fork {
        Thread.sleep(5)
        (0 until 8).foreach(j => group.fork(seen.incrementAndGet(8 * i + j)))
      }
    }
    group.join()
    (0 until 64).foreach(i => assert(seen.get(i) == 1, s"index $i"))
  }

  test("a throwing group body reaches join as it is, after every other body") {
    val boom  = new Deadline.Exceeded
    val done  = new AtomicInteger(0)
    val group = new Par.Group
    (0 until 12).foreach { i =>
      group.fork {
        if (i == 3) throw boom
        Thread.sleep(20)
        done.incrementAndGet()
      }
    }
    assert(intercept[Deadline.Exceeded](group.join()) eq boom)
    assert(done.get() == 11)
  }
}
