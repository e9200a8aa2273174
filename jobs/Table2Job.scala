package repro.jobs

import repro.exp.{Experiments, ExpRow}

/** Reproduces paper Table 2 (VLAD10M partitioned into 1M clusters; here the
  * scaled stand-in with the paper's n/k = 10 ratio) and checks its shape
  * claims.
  *
  * Usage: `spark-submit --class repro.jobs.Table2Job <jar> [n] [k] [iters]`.
  */
object Table2Job {
  def main(args: Array[String]): Unit = JobSession.run("table2") { spark =>
    val n = JobSession.intArg(args, 0, 60000)
    val k = JobSession.intArg(args, 1, n / 10)
    val (rows, estimateSec) = Experiments.table2(spark, n, k, iters = JobSession.intArg(args, 2, 20))
    println(s"== Table 2: $n x ${rows.head.d} -> $k clusters (paper: 10M x 512 -> 1M) ==")
    println(Experiments.fmtTable(rows))
    println(f"traditional k-means, extrapolated full-scan cost: ${estimateSec}%.1f s " +
      f"(paper's analogue of the '3 years' estimate)")
    claims(rows, estimateSec)
  }

  /** Paper Table-2 shape claims, with generous margins. */
  def claims(rows: Seq[ExpRow], estimateSec: Double): Seq[Claim] = {
    val kg = rows.find(_.method == "KGraph+GK-means").get
    val gk = rows.find(_.method == "GK-means").get
    val cl = rows.find(_.method == "closure k-means").get
    Seq(
      // GK-means has the lowest total time of the three methods.
      Claim("gk_total_le_kgraph", gk.totalSec <= kg.totalSec, s"gk=${gk.totalSec}s kgraph=${kg.totalSec}s"),
      // NN-Descent construction dominates KGraph+GK-means' init cost.
      Claim("kgraph_init_gt_gk_iter", kg.initSec > gk.iterSec, s"kgraph init ${kg.initSec}s should dwarf iteration cost"),
      // GK-means reaches lower distortion than closure k-means.
      Claim("gk_e_le_closure", gk.distortion <= cl.distortion * 1.05, s"gk=${gk.distortion} closure=${cl.distortion}"),
      // GK-means' iteration phase is far below the extrapolated full-scan
      // cost (the paper's "3 years" comparison; init amortisation needs the
      // paper's n — see EXPERIMENTS.md).
      Claim("gk_iter_below_full_scan", gk.iterSec * 5 < estimateSec,
        s"gk iter=${gk.iterSec}s full-scan estimate=${estimateSec}s"),
    )
  }
}
