(** Least-squares line fitting, for turning the sweep tables into slope
    statements ("T* grows like c log n with R^2 = ...").  Minimal and
    dependency-free; used by the experiment drivers. *)

type line = {
  slope : float;
  intercept : float;
  r_squared : float;  (** 1.0 on a perfect fit; 0/0-degenerate inputs give [nan] *)
  residuals : float list;
      (** [y - (slope * x + intercept)] for each point, in input order *)
  se_slope : float;
      (** standard error of [slope]: [sqrt (s^2 / Sxx)], where [s^2] is
          the residual sum of squares over [n - 2] and [Sxx] the sum of
          squared deviations of [x]; [nan] for two points *)
  se_intercept : float;
      (** standard error of [intercept]:
          [sqrt (s^2 * (1/n + mean_x^2 / Sxx))]; [nan] for two points *)
}

val fit : (float * float) list -> line
(** Ordinary least squares on (x, y) points.
    @raise Invalid_argument with fewer than 2 points. *)

val fit_log_x : (float * float) list -> line
(** Fit y against log2 x — the shape test for Theta(log n) claims. *)

val pp : Format.formatter -> line -> unit
(** Slope, intercept and R^2 only. *)
