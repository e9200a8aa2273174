package repro.jobs

import repro.exp.{Experiments, ExpRow, Tables}

/** Reproduces the Fig. 4 configuration test (distortion vs graph recall for
  * GK-means / GK-means⁻ / KGraph+GK-means) as a table of the plotted points,
  * and checks its shape claims.
  *
  * Usage: `spark-submit --class repro.jobs.ConfigJob <jar> [n] [k] [iters]`.
  */
object ConfigJob {
  def main(args: Array[String]): Unit = JobSession.run("configtest") { spark =>
    val rows = Tables.configTest(
      spark,
      n = JobSession.intArg(args, 0, 20000),
      k = JobSession.intArg(args, 1, 1000),
      taus = Seq(1, 3, 6, 10),
      iters = JobSession.intArg(args, 2, 12),
    )
    println("== Fig. 4 (as table): distortion vs graph recall, SIFT-lite ==")
    println(Experiments.fmtTable(rows))
    claims(rows)
  }

  /** Fig. 4 shape claims on the τ = 1, 3, 6, 10 rows `main` runs. */
  def claims(rows: Seq[ExpRow]): Seq[Claim] = {
    val gk1 = rows.find(_.method == "GK-means(tau=1)").get
    val gk10 = rows.find(_.method == "GK-means(tau=10)").get
    val gkm10 = rows.find(_.method == "GK-means-(tau=10)").get
    Seq(
      Claim("rows", rows.length == 12, s"${rows.length} rows, want 3 per tau"),
      // better graphs must not hurt GK-means distortion: tau=10 <= tau=1 (+2%)
      Claim("gk_e_tau10_le_tau1", gk10.distortion <= gk1.distortion * 1.02, s"tau10=${gk10.distortion} tau1=${gk1.distortion}"),
      // recall grows with tau
      Claim("recall_grows_with_tau", gk10.recall >= gk1.recall - 0.02, s"recall tau10=${gk10.recall} tau1=${gk1.recall}"),
      // boost-rule GK-means beats the traditional-rule GK-means- at the best graph
      Claim("gk_e_le_gk_minus", gk10.distortion <= gkm10.distortion * 1.03, s"gk=${gk10.distortion} gk-=${gkm10.distortion}"),
    )
  }
}
