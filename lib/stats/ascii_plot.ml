let glyphs = [| '*'; '+'; 'o'; 'x'; '#'; '@' |]

let render ?(width = 72) ?(height = 20) ?(x_label = "") ?(y_label = "")
    (series : Series.t list) =
  let all_points =
    List.concat_map (fun s -> s.Series.points) series
  in
  if all_points = [] then ""
  else begin
    let xmin, xmax, ymax =
      List.fold_left
        (fun (xmin, xmax, ymax) p ->
          ( min xmin p.Series.x,
            max xmax p.Series.x,
            max ymax p.Series.y ))
        (infinity, neg_infinity, neg_infinity)
        all_points
    in
    let ymin = 0.0 in
    let ymax = if ymax <= ymin then ymin +. 1.0 else ymax in
    let xspan = if xmax > xmin then xmax -. xmin else 1.0 in
    let canvas = Array.make_matrix height width ' ' in
    let col x =
      let c = int_of_float ((x -. xmin) /. xspan *. float_of_int (width - 1)) in
      max 0 (min (width - 1) c)
    in
    let row y =
      let r =
        int_of_float ((y -. ymin) /. (ymax -. ymin) *. float_of_int (height - 1))
      in
      height - 1 - max 0 (min (height - 1) r)
    in
    List.iteri
      (fun i s ->
        let g = glyphs.(i mod Array.length glyphs) in
        List.iter
          (fun p -> canvas.(row p.Series.y).(col p.Series.x) <- g)
          s.Series.points)
      series;
    let buf = Buffer.create ((width + 16) * (height + 4)) in
    if y_label <> "" then begin
      Buffer.add_string buf y_label;
      Buffer.add_char buf '\n'
    end;
    Array.iteri
      (fun r line ->
        let ylab =
          if r = 0 then Printf.sprintf "%10.0f |" ymax
          else if r = height - 1 then Printf.sprintf "%10.0f |" ymin
          else "           |"
        in
        Buffer.add_string buf ylab;
        Buffer.add_string buf (String.init width (fun c -> line.(c)));
        Buffer.add_char buf '\n')
      canvas;
    Buffer.add_string buf ("           +" ^ String.make width '-' ^ "\n");
    Buffer.add_string buf
      (Printf.sprintf "           %-12g%*s\n" xmin (width - 10)
         (Printf.sprintf "%g" xmax));
    if x_label <> "" then
      Buffer.add_string buf (Printf.sprintf "%*s\n" ((width / 2) + 12) x_label);
    List.iteri
      (fun i s ->
        Buffer.add_string buf
          (Printf.sprintf "             %c = %s\n"
             glyphs.(i mod Array.length glyphs)
             s.Series.label))
      series;
    Buffer.contents buf
  end
