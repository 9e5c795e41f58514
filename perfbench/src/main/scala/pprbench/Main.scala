package pprbench

/** Benchmark entry point; `run.py` starts it once per set-up.
  *
  *   Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --setup-only 1
  *   Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] [--prior <line>]...
  *   Main --list-metrics
  *
  * Every set-up runs in a fresh JVM, so each one pays the cold (interpreted,
  * then JIT) start a user pays, and each warm build samples the JIT's
  * compile decisions anew. A set-up-only JVM prints `SETUP<tab><line>`; the
  * last JVM takes those lines as `--prior`, does its own set-up and runs the
  * queries.
  */
object Main {

  def main(args: Array[String]): Unit = {
    if (args.sameElements(Array("--list-metrics"))) {
      Seq("end_to_end" -> Metrics.EndToEnd, "per_layer" -> Metrics.PerLayer).foreach {
        case (kind, ms) => ms.foreach { case (n, u) => println(s"$kind $n $u") }
      }
      return
    }
    val code =
      try {
        val opts = Options.parse(args)
        val wl   = Workload.named(opts.workload)
        val (mine, g, index) = Entry.setup(wl)
        if (opts.setupOnly) { println(s"SETUP\t${mine.encode}"); 0 }
        else new Run(opts, wl, opts.priors.map(SetupResult.decode) :+ mine, g, index).execute()
      } catch {
        case e: IllegalArgumentException => System.err.println(s"error: ${e.getMessage}"); 2
      }
    System.out.flush()
    sys.exit(code)
  }
}
