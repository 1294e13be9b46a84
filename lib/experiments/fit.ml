type line = {
  slope : float;
  intercept : float;
  r_squared : float;
  residuals : float list;
  se_slope : float;
  se_intercept : float;
}

let fit points =
  let n = List.length points in
  if n < 2 then invalid_arg "Fit.fit: need at least 2 points";
  let nf = float_of_int n in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0. points in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0. points in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. points in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. points in
  let denom = (nf *. sxx) -. (sx *. sx) in
  let slope = ((nf *. sxy) -. (sx *. sy)) /. denom in
  let intercept = (sy -. (slope *. sx)) /. nf in
  let mean_y = sy /. nf in
  let ss_tot = List.fold_left (fun a (_, y) -> a +. ((y -. mean_y) ** 2.)) 0. points in
  let residuals = List.map (fun (x, y) -> y -. (slope *. x) -. intercept) points in
  let ss_res = List.fold_left (fun a r -> a +. (r *. r)) 0. residuals in
  (* Residual variance on n - 2 degrees of freedom; two points fit
     exactly and leave none, so their errors are undefined. *)
  let variance = if n > 2 then ss_res /. (nf -. 2.) else Float.nan in
  let mean_x = sx /. nf in
  let sxx_centered = sxx -. (nf *. mean_x *. mean_x) in
  {
    slope;
    intercept;
    r_squared = 1. -. (ss_res /. ss_tot);
    residuals;
    se_slope = sqrt (variance /. sxx_centered);
    se_intercept = sqrt (variance *. ((1. /. nf) +. (mean_x *. mean_x /. sxx_centered)));
  }

let fit_log_x points = fit (List.map (fun (x, y) -> (log x /. log 2., y)) points)

let pp ppf l =
  Format.fprintf ppf "slope=%.3f intercept=%.3f R^2=%.3f" l.slope l.intercept
    l.r_squared
